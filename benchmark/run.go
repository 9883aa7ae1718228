package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"
)

// Load shape: closed loop, one client. One process runs one workload,
// one simulation at a time (every harness is given Workers: 1);
// GOMAXPROCS is left at the host's core count.

// runOpts is one invocation's request.
type runOpts struct {
	workload string
	seed     int64
	seconds  float64 // how long the timed operations measure for
	reps     int     // >0: that many timed operations instead of `seconds`
	trace    bool
	sz       *sizes
}

// result is what one invocation reports. The driver's result line is
// its first four fields; the rest goes to the -out file.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Seeded   bool     `json:"seed_changes_inputs"`
	Digest   string   `json:"digest"`
	Errors   []string `json:"errors,omitempty"`

	rec *recorder
}

// ops counts operations and remembers why any failed.
type ops struct {
	attempted, failed int
	errors            []string
}

func (o *ops) did(what string, err error) bool {
	o.attempted++
	if err != nil {
		o.failed++
		o.errors = append(o.errors, what+": "+err.Error())
	}
	return err == nil
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// timedOp runs one operation with the collector quiesced before it and
// returns its outcome, the duration of its timed region and the bytes
// the host allocated for it.
func timedOp(inst instance, rec *recorder) (outcome, time.Duration, float64, error) {
	runtime.GC()
	before := totalAlloc()
	out, d, err := inst.run(rec)
	return out, d, float64(totalAlloc()-before) / (1 << 20), err
}

// run measures one workload: end-to-end metrics with tracing off, or
// per-layer metrics from traced operations and the layer drives.
func run(o runOpts) (*result, error) {
	w, ok := findWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	inst, err := w.prepare(o.seed, o.sz)
	if err != nil {
		return nil, fmt.Errorf("%s: preparing inputs: %w", w.name, err)
	}
	res := &result{Workload: w.name, Seed: o.seed, Seeded: !w.seedless}
	var ms *metricSet
	var op ops
	if o.trace {
		ms, err = runTraced(w, inst, o, &op, res)
	} else {
		ms, err = runTimed(inst, o, &op, res)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res.Metrics = ms.values
	res.Attempted, res.Failed, res.Errors = op.attempted, op.failed, op.errors
	res.Correct = op.failed == 0
	return res, nil
}

// maxSetups caps the set-ups of one run however short they are.
const maxSetups = 500

// sameSim fails an operation whose simulated statistics differ from the
// first operation's: one seed must give one simulation, every time.
func sameSim(first *string, digest string) error {
	if *first == "" {
		*first = digest
	}
	if digest != *first {
		return fmt.Errorf("simulated statistics differ between operations (%s vs %s)", digest, *first)
	}
	return nil
}

func runTimed(inst instance, o runOpts, op *ops, res *result) (*metricSet, error) {
	ms := newMetricSet(endToEnd)

	// Set-ups are milliseconds long, so one run takes many: at least
	// sz.setups, and more until they have run for sz.setupSeconds. Each
	// starts from a collected heap, so that a collection triggered by the
	// previous set-up's garbage is not charged to this one.
	var setups []float64
	var setupSum float64
	for i := 0; i < o.sz.setups || (setupSum < o.sz.setupSeconds && i < maxSetups); i++ {
		runtime.GC()
		t0 := time.Now()
		err := inst.setup()
		d := time.Since(t0).Seconds()
		if op.did("set-up", err) {
			setups = append(setups, d)
			setupSum += d
		}
	}

	// One warm-up operation: translated blocks are per machine, but the
	// host's heap, page cache and branch predictors are not.
	var first string
	last, _, _, err := timedOp(inst, nil)
	if err == nil {
		err = sameSim(&first, last.digest)
	}
	op.did("warm-up", err)

	var secs, allocs []float64
	var measured time.Duration
	for rep := 0; ; rep++ {
		if o.reps > 0 {
			if rep >= o.reps {
				break
			}
		} else if rep >= 3 && measured.Seconds() >= o.seconds {
			break
		}
		out, d, alloc, err := timedOp(inst, nil)
		if err == nil {
			err = sameSim(&first, out.digest)
		}
		if op.did(fmt.Sprintf("rep %d", rep), err) {
			secs, allocs, last = append(secs, d.Seconds()), append(allocs, alloc), out
		}
		measured += d
	}
	if len(secs) == 0 || len(setups) == 0 {
		return nil, fmt.Errorf("no operation succeeded: %v", op.errors)
	}

	// Host noise on a shared machine only ever adds time, and arrives in
	// phases longer than a run, so the timings reported are the fastest
	// seen: the closest a run gets to the undisturbed cost. (Measured on
	// the sandbox: between a quiet and a busy minute the fastest sample
	// moves about half as far as the median does.)
	runS := minOf(secs)
	simSecs := runS
	if f, ok := inst.(finisher); ok {
		out, d, err := f.finish(nil)
		if !op.did("finish", err) {
			return nil, fmt.Errorf("finish: %w", err)
		}
		last, simSecs = out, d.Seconds()
		first = out.digest // the image hash is a format detail, not a simulated statistic
	}
	res.Digest = first

	ms.set("setup_s", minOf(setups), setups...)
	ms.set("run_s", runS, secs...)
	ms.set("sim_cycles_per_s", float64(last.cyclesRun)/simSecs)
	ms.set("peak_rss_mb", peakRSSMiB())
	ms.set("host_alloc_mb", median(allocs), allocs...)
	ms.set("sim_cycles", float64(last.cycles))
	ms.set("sim_utilization", float64(last.useful)/float64(last.total))
	return ms, nil
}

// A traced run alternates plain and traced operations: at least
// tracedPairs of each, and more while the plain side has measured for
// less than tracedPlainSeconds (short operations are the noisy ones).
// The overhead ratio compares the fastest of each side.
const (
	tracedPairs        = 2
	tracedMaxPairs     = 6
	tracedPlainSeconds = 2.0
)

func runTraced(w workloadDef, inst instance, o runOpts, op *ops, res *result) (*metricSet, error) {
	ms := newMetricSet(perLayer)
	rec := newRecorder(w.name)
	res.rec = rec

	var first string
	var plain, traced []float64
	var out outcome
	var plainSum float64
	for pair := 0; pair < tracedPairs || (pair < tracedMaxPairs && plainSum < tracedPlainSeconds); pair++ {
		p, d, _, err := timedOp(inst, nil)
		plainSum += d.Seconds()
		if err == nil {
			err = sameSim(&first, p.digest)
		}
		if op.did("plain", err) {
			plain = append(plain, d.Seconds())
		}
		id := rec.begin("op")
		t, d, _, err := timedOp(inst, rec)
		rec.end(id)
		if err == nil {
			err = sameSim(&first, t.digest)
		}
		if op.did("traced", err) {
			traced, out = append(traced, d.Seconds()), t
		}
	}
	if len(plain) == 0 || len(traced) == 0 {
		return nil, fmt.Errorf("no operation succeeded: %v", op.errors)
	}
	runS := minOf(plain)
	if f, ok := inst.(finisher); ok {
		id := rec.begin("finish")
		fin, d, err := f.finish(rec)
		rec.end(id)
		if !op.did("finish", err) {
			return nil, fmt.Errorf("finish: %w", err)
		}
		// The counters and shares below describe the completion run.
		out, runS = fin, d.Seconds()
		first = fin.digest
	}
	res.Digest = first

	ms.set("trace.bench_overhead_ratio", minOf(traced)/minOf(plain), append(plain, traced...)...)
	if w.name == "alewife64_queens" {
		ratio, err := armedOverhead(inst.(*queensInst), plain, &first, op)
		if err != nil {
			return nil, err
		}
		ms.set("trace.armed_overhead_ratio", ratio)
	}

	golden, err := goldenDigests()
	if err != nil {
		return nil, err
	}
	changed := 0.0
	if want, ok := golden[w.name]; ok && o.seed == 1 && !o.sz.smoke && want != first {
		changed = 1
	}
	ms.set("sim.digest_changed", changed)

	// The layer drives share half of what the timed operations get.
	if err := runDrives(ms, w.name, o.seed, o.sz, secondsDuration(o.seconds/2), nil); err != nil {
		return nil, fmt.Errorf("layer drives: %w", err)
	}
	ledger(ms, w, out, runS)
	ms.fillZero()
	return ms, nil
}

// armedOverhead is the cost of the simulator's own event tracer and
// timeline sampler: the fastest of as many armed operations as plain
// ones were run, over the fastest plain one.
func armedOverhead(q *queensInst, plain []float64, first *string, op *ops) (float64, error) {
	armed := *q
	armed.armed = true
	var secs []float64
	for range plain {
		out, d, _, err := timedOp(&armed, nil)
		if err == nil {
			err = sameSim(first, out.digest)
		}
		if !op.did("armed", err) {
			return 0, fmt.Errorf("armed-tracer run: %w", err)
		}
		secs = append(secs, d.Seconds())
	}
	return minOf(secs) / minOf(plain), nil
}

// ledger derives the counts, ratios and shares of the per-layer
// catalogue from one traced outcome, the drives' unit costs already in
// ms, and the duration runS of the plain operation the outcome repeats.
//
// A share is count x isolated unit cost / run_s. One simulation is
// sequential, so a faster layer saves at most its share; the unit costs
// are measured warm and alone, so the shares are estimates, and what
// they leave over is reported as sim.residual_share rather than hidden:
// run loop, wake queue, controller service, idle polls, and whatever
// the layers cost beyond their isolated price.
func ledger(ms *metricSet, w workloadDef, out outcome, runS float64) {
	c := out.counts
	count := func(k string) float64 { return float64(c[k]) }
	for name, v := range out.extra {
		ms.set(name, v)
	}

	for _, k := range []string{"instructions", "useful_cycles", "trap_cycles", "wait_cycles", "idle_cycles", "switches"} {
		ms.set("proc."+k, count("proc."+k))
	}
	for _, k := range []string{"tasks_created", "thread_steals", "blocks", "touches_unresolved"} {
		ms.set("rts."+k, count("rts."+k))
	}
	for _, k := range []string{"hits", "misses", "evictions"} {
		ms.set("cache."+k, count("cache."+k))
	}
	for _, k := range []string{"read_misses", "write_misses", "invals_sent", "writebacks"} {
		ms.set("directory."+k, count("directory."+k))
	}
	for _, k := range []string{"messages", "hops", "flits"} {
		ms.set("network."+k, count("network."+k))
	}
	ms.set("network.max_latency_cycles", count("network.max_latency"))
	ms.set("network.avg_latency_cycles", ratio(count("network.total_latency"), count("network.delivered")))
	ms.set("cache.miss_ratio", ratio(count("cache.misses"), count("cache.hits")+count("cache.misses")))
	ms.set("isa.blocks_translated", count("compile.translated_blocks"))
	ms.set("proc.fused_frac", ratio(count("compile.fused_ops"), count("proc.instructions")))
	ms.set("proc.epoch_cycles_pct", 100*ratio(count("epoch.cycles"), count("machine.cycles")))
	ms.set("proc.sim_mips", ratio(count("proc.instructions"), runS)/1e6)
	ms.set("sim.ns_per_node_cycle", ratio(runS*1e9, float64(out.nodeCycles)))
	ms.set("sim.window_ns_per_cycle_p50", quantile(out.windows, 0.5))
	ms.set("sim.window_ns_per_cycle_p95", quantile(out.windows, 0.95))

	if len(c) == 0 {
		// The machines were behind a public call (modelcheck16): there
		// are no counts to price, and a residual of 1 would say nothing.
		return
	}
	runNS := runS * 1e9
	fused := count("compile.fused_ops")
	stepped := math.Max(count("proc.instructions")-fused, 0)
	// A machine above 64 nodes scans more ready queues per steal and
	// spills its sharer sets out of the inline word.
	steal, sharers := ms.get("rts.steal_ns_n64"), ms.get("directory.sharers_ns")
	if w.nodes > 64 {
		steal, sharers = ms.get("rts.steal_ns_n1000"), ms.get("directory.sharers_overflow_ns")
	}
	shares := map[string]float64{
		"share.proc": fused*ms.get("proc.fused_ns_per_inst") + stepped*ms.get("proc.step_ns") +
			count("proc.switches")*ms.get("core.switch_ns"),
		"share.cache": (count("cache.hits")+count("cache.misses"))*ms.get("cache.lookup_hit_ns") +
			count("cache.misses")*ms.get("cache.insert_evict_ns"),
		"share.directory": (count("directory.read_misses")+count("directory.write_misses")+count("directory.writebacks"))*ms.get("directory.entry_hit_ns") +
			(count("directory.read_misses")+count("directory.write_misses")+count("directory.invals_sent"))*sharers,
		"share.network": count("network.hops") * ms.get("network.torus_hop_ns"),
		"share.rts": (count("rts.tasks_created")+count("rts.blocks"))*ms.get("rts.push_pop_ns") +
			(count("rts.thread_steals")+count("rts.steals"))*steal,
		"share.mem": (count("proc.loads") + count("proc.stores")) * ms.get("mem.access_ns"),
	}
	residual := 1.0
	for name, ns := range shares {
		s := ratio(ns, runNS)
		ms.set(name, s)
		residual -= s
	}
	ms.set("sim.residual_share", residual)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
