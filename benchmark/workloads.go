package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"april"
	"april/internal/bench"
	"april/internal/harness"
	"april/internal/mult"
	"april/internal/rts"
	"april/internal/sim"
	"april/internal/workload"
)

// The workloads reach the simulator only through sim.New / Load / Run /
// RunWindow / Snapshot / Restore / CounterRegistry, mult.Compile,
// april.Table3, workload.Run and bench.ModelCheck, and never set an
// execution-tier knob: every number is what the default configuration
// gives. (The one exception is the traced run of synth64_stream, which
// rebuilds workload.Run's machine from its exported pieces to see the
// counters workload.Run keeps to itself, and must reproduce its
// measurement bit for bit.)

// outcome is what one operation reports besides its duration.
type outcome struct {
	cycles     uint64             // sim: machine cycles at completion (grid: sum over its runs)
	cyclesRun  uint64             // sim: cycles simulated inside the timed region
	nodeCycles uint64             // sim: sum of cyclesRun x nodes over the machines run
	useful     uint64             // sim: useful processor cycles
	total      uint64             // sim: all processor cycles
	digest     string             // hash of the simulated statistics
	counts     map[string]uint64  // layer counters, where the workload can see them
	extra      map[string]float64 // workload-specific per-layer metrics, by catalogue name
	windows    []float64          // traced only: ns per simulated cycle of each RunWindow span
}

// instance is one workload with its inputs generated.
type instance interface {
	// setup performs one set-up (machine construction, compilation,
	// load) and discards it.
	setup() error
	// run performs one operation and returns the duration of its timed
	// region. With a recorder the operation is traced: spans around
	// every call into the simulator, counter deltas per window.
	run(rec *recorder) (outcome, time.Duration, error)
}

// finisher is implemented by a workload whose operations share state
// that must be checked once at the end (ckpt64's donor and twin). The
// simulated-time metrics come from finish's outcome.
type finisher interface {
	finish(rec *recorder) (outcome, time.Duration, error)
}

type workloadDef struct {
	name string
	why  string
	// nodes is the workload's largest machine; it selects which
	// size-dependent unit costs (steal scan, sharer sets) price it.
	nodes int
	// seedless marks a workload whose inputs the seed cannot reach: it
	// sits behind a public call that fixes its own inputs.
	seedless bool
	prepare  func(seed int64, sz *sizes) (instance, error)
}

var workloads = []workloadDef{
	{"grid_perfect", "Table 3 at paper sizes on perfect memory: proc/isa compiled tier, rts and mult do the work, cache/directory/network none", 64, false, prepareGrid},
	{"alewife64_queens", "queens 9 on 64 busy ALEWIFE nodes at 0.70 utilization: the multi-node reference row, with stores, invalidations and write-backs", 64, false, prepareDense},
	{"alewife1000_sparse", "queens 8 on a 10-ary 3-cube at 5% utilization: host time is run loop, wake queue, idle polls and an empty fabric", 1000, false, prepareSparse},
	{"synth64_stream", "raw threads streaming through a 2 KiB cache on 64 all-busy nodes: read-only capacity misses, rts and futures bypassed", 64, true, prepareSynth},
	{"ckpt64", "snapshot+restore round trips of a 64-node machine at cycle 20000: the only workload where snapshot/mem page encoding does the work", 64, false, prepareCkpt},
	{"modelcheck16", "Eq. 1 against measured utilization for fib and queens on 2-16 ALEWIFE nodes: the fidelity leg, rts-heavy at small p", 64, true, prepareModelCheck},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// sizes fixes every workload's dimensions. Only -scale smoke (the test)
// changes them; the driver always runs full.
type sizes struct {
	smoke bool

	grid                    april.Table3Sizes
	aprilProcs, encoreProcs []int

	denseNodes, denseQueens   int
	denseMem                  uint32
	sparseNodes, sparseQueens int
	sparseMem                 uint32
	ckptNodes, ckptQueens     int
	ckptCycle                 uint64
	synth                     workload.Config
	model                     bench.ModelCheckConfig

	window       uint64  // RunWindow span length of the traced runs
	setups       int     // least set-ups per run (median reported)
	setupSeconds float64 // set-ups repeat until they have taken this long
	bigNodes     int     // node count of the "_n1000" layer drives
	midNodes     int     // node count of the "_n64" layer drives
}

func fullSizes() *sizes {
	synth := workload.DefaultConfig()
	synth.Nodes, synth.ThreadsPerNode = 64, 4
	model := bench.DefaultModelCheckConfig()
	model.Workers = 1
	return &sizes{
		grid:       bench.PaperSizes,
		aprilProcs: []int{1, 2, 4, 8, 16}, encoreProcs: []int{1, 2, 4, 8},
		denseNodes: 64, denseQueens: 9, denseMem: 1 << 30,
		// 1000 = 10^3 keeps the paper's 3-D geometry family (20x20x20);
		// 1024 has no cubic fit and would fall back to a ring.
		sparseNodes: 1000, sparseQueens: 8, sparseMem: 1 << 31,
		ckptNodes: 64, ckptQueens: 8, ckptCycle: 20000,
		synth: synth, model: model,
		window: 4096, setups: 15, setupSeconds: 1.5, bigNodes: 1000, midNodes: 64,
	}
}

func smokeSizes() *sizes {
	synth := workload.DefaultConfig()
	synth.Nodes, synth.ThreadsPerNode = 8, 4
	synth.Cycles, synth.WarmupCycles = 20_000, 5_000
	model := bench.DefaultModelCheckConfig()
	model.Workers = 1
	model.Sizes = bench.TestSizes
	model.Procs = []int{2}
	return &sizes{
		smoke:      true,
		grid:       bench.TestSizes,
		aprilProcs: []int{1, 2}, encoreProcs: []int{1},
		denseNodes: 8, denseQueens: 5, denseMem: 64 << 20,
		sparseNodes: 27, sparseQueens: 4, sparseMem: 64 << 20,
		ckptNodes: 8, ckptQueens: 5, ckptCycle: 1000,
		synth: synth, model: model,
		window: 1024, setups: 1, bigNodes: 27, midNodes: 8,
	}
}

// queensSource is bench.QueensSource with the order in which rows are
// tried drawn from the seed: the same search tree and the same answer,
// visited — and so scheduled across the machine — in another order.
func queensSource(n int, seed int64) string {
	order := newRand(seed).Perm(n)
	rows := make([]string, n)
	for i, r := range order {
		rows[i] = fmt.Sprint(r + 1)
	}
	return fmt.Sprintf(`
(define board-size %d)
(define order '(%s))
(define (safe? row dist placed)
  (cond ((null? placed) #t)
        ((= (car placed) row) #f)
        ((= (abs (- (car placed) row)) dist) #f)
        (else (safe? row (+ dist 1) (cdr placed)))))
(define (try-rows placed len rows)
  (cond ((null? rows) 0)
        ((safe? (car rows) 1 placed)
         (+ (future (extend (cons (car rows) placed) (+ len 1)))
            (try-rows placed len (cdr rows))))
        (else (try-rows placed len (cdr rows)))))
(define (extend placed len)
  (if (= len board-size) 1 (try-rows placed len order)))
(extend '() 0)
`, n, strings.Join(rows, " "))
}

// knownAnswers are the values the issue fixes; anything else is checked
// against the independent tree-walking interpreter.
var knownAnswers = map[string]string{"fib 18": "2584", "queens 8": "92", "queens 9": "352"}

// expected returns the program's value from a source other than the
// compiler and simulator under test.
func expected(key, src string) (string, error) {
	if v, ok := knownAnswers[key]; ok {
		return v, nil
	}
	v, err := mult.NewInterp(io.Discard, 1<<40).RunSource(src)
	if err != nil {
		return "", fmt.Errorf("interpreting %s: %w", key, err)
	}
	return mult.FormatValue(v), nil
}

// ---- digest and counter folding ----

type digester struct{ h hash.Hash64 }

func newDigester() *digester { return &digester{fnv.New64a()} }

func (d *digester) sum() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

func (d *digester) u64(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		d.h.Write(b[:])
	}
}
func (d *digester) f64(vs ...float64) {
	for _, v := range vs {
		d.u64(math.Float64bits(v))
	}
}
func (d *digester) str(s string) { d.u64(uint64(len(s))); d.h.Write([]byte(s)) }

// machineDigest hashes a finished machine's result and the simulated
// totals layerCounts folds out of its counters. Tier telemetry (the
// compile.* and epoch.* counts) is host-side and left out: a PR that
// deletes a tier, or adds a counter to the registry, must not move the
// digest.
func machineDigest(res sim.Result, counts map[string]uint64) string {
	d := newDigester()
	d.u64(res.Cycles)
	d.str(res.Formatted)
	keys := make([]string, 0, len(counts))
	for k := range counts {
		if !strings.HasPrefix(k, "compile.") && !strings.HasPrefix(k, "epoch.") {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		d.str(k)
		d.u64(counts[k])
	}
	return d.sum()
}

// layerCounts folds a registry snapshot into machine-wide totals keyed
// "<layer>.<counter>".
func layerCounts(snap map[string]map[string]uint64) map[string]uint64 {
	c := map[string]uint64{}
	for g, kv := range snap {
		switch {
		case strings.HasPrefix(g, "node") && strings.HasSuffix(g, ".proc"):
			for _, k := range []string{"instructions", "useful_cycles", "wait_cycles", "trap_cycles", "idle_cycles", "switches", "loads", "stores"} {
				c["proc."+k] += kv[k]
			}
		case strings.HasPrefix(g, "node") && strings.HasSuffix(g, ".memory"):
			c["cache.hits"] += kv["cache_hits"]
			c["cache.misses"] += kv["cache_misses"]
			c["cache.evictions"] += kv["cache_evictions"]
			c["directory.read_misses"] += kv["dir_read_misses"]
			c["directory.write_misses"] += kv["dir_write_misses"]
			c["directory.invals_sent"] += kv["dir_invals_sent"]
			c["directory.writebacks"] += kv["dir_writebacks"]
		case g == "scheduler":
			for _, k := range []string{"tasks_created", "thread_steals", "steals", "blocks", "touches_unresolved"} {
				c["rts."+k] = kv[k]
			}
		case g == "network":
			c["network.messages"] = kv["messages"]
			c["network.hops"] = kv["hops"]
			c["network.flits"] = kv["flits_sent"]
			c["network.delivered"] = kv["delivered"]
			c["network.total_latency"] = kv["total_latency"]
			c["network.max_latency"] = kv["max_latency"]
		case g == "compile":
			c["compile.fused_ops"] = kv["fused_ops"]
			c["compile.translated_blocks"] = kv["translated_blocks"]
		case g == "epoch":
			c["epoch.cycles"] = kv["cycles"]
		case g == "machine":
			c["machine.cycles"] = kv["cycles"]
		}
	}
	return c
}

func deltaCounts(cur, prev map[string]uint64) map[string]uint64 {
	d := map[string]uint64{}
	for k, v := range cur {
		if v != prev[k] && k != "network.max_latency" {
			d[k] = v - prev[k]
		}
	}
	return d
}

// finishMachine packages a completed machine: its result checked
// against the expected value, its digest and its counters.
func finishMachine(rec *recorder, m *sim.Machine, res sim.Result, want string, from uint64) (outcome, error) {
	id := rec.begin("stats/package")
	defer rec.end(id)
	if res.Formatted != want {
		return outcome{}, fmt.Errorf("wrong program value %s, want %s", res.Formatted, want)
	}
	counts := layerCounts(m.CounterRegistry().Snapshot())
	return outcome{
		cycles:     res.Cycles,
		cyclesRun:  res.Cycles - from,
		nodeCycles: (res.Cycles - from) * uint64(len(m.Nodes)),
		useful:     counts["proc.useful_cycles"],
		total:      counts["proc.useful_cycles"] + counts["proc.wait_cycles"] + counts["proc.trap_cycles"] + counts["proc.idle_cycles"],
		digest:     machineDigest(res, counts),
		counts:     counts,
	}, nil
}

// spanWindows calls step — one bounded advance of m — until it reports
// done, each call inside a "run/window" span with the window's counter
// deltas attached, and appends each window's cost in ns per simulated
// cycle to perCycle.
func spanWindows(rec *recorder, m *sim.Machine, perCycle *[]float64, step func() (done bool, err error)) error {
	reg := m.CounterRegistry()
	prev := layerCounts(reg.Snapshot())
	for {
		from := m.Now()
		id := rec.begin("run/window")
		done, err := step()
		rec.end(id)
		if err != nil {
			return err
		}
		cur := layerCounts(reg.Snapshot())
		s := &rec.spans[id]
		s.Args = deltaCounts(cur, prev)
		prev = cur
		if adv := m.Now() - from; adv > 0 {
			*perCycle = append(*perCycle, float64((s.End-s.Start).Nanoseconds())/float64(adv))
		}
		if done {
			return nil
		}
	}
}

// ---- queens on ALEWIFE: alewife64_queens, alewife1000_sparse ----

type queensInst struct {
	nodes  int
	mem    uint32
	src    string
	want   string
	window uint64
	armed  bool // arm the simulator's own tracer and timeline (trace.armed_overhead_ratio)
}

func newQueensInst(nodes, n int, memBytes uint32, seed int64, sz *sizes) (*queensInst, error) {
	src := queensSource(n, seed)
	want, err := expected(fmt.Sprintf("queens %d", n), src)
	if err != nil {
		return nil, err
	}
	return &queensInst{nodes: nodes, mem: memBytes, src: src, want: want, window: sz.window}, nil
}

func prepareDense(seed int64, sz *sizes) (instance, error) {
	return newQueensInst(sz.denseNodes, sz.denseQueens, sz.denseMem, seed, sz)
}

func prepareSparse(seed int64, sz *sizes) (instance, error) {
	return newQueensInst(sz.sparseNodes, sz.sparseQueens, sz.sparseMem, seed, sz)
}

// build is the set-up of one ALEWIFE machine: default AlewifeConfig
// (Table 4 cache, torus fitted to the node count), APRIL profile.
func (q *queensInst) build(rec *recorder) (*sim.Machine, error) {
	id := rec.begin("setup/new")
	m, err := sim.New(sim.Config{Nodes: q.nodes, Profile: rts.APRIL, MemoryBytes: q.mem, Alewife: &sim.AlewifeConfig{}})
	rec.end(id)
	if err != nil {
		return nil, err
	}
	id = rec.begin("setup/compile")
	prog, err := mult.Compile(q.src, mult.Mode{HardwareFutures: true}, m.StaticHeap())
	rec.end(id)
	if err != nil {
		return nil, err
	}
	id = rec.begin("setup/load")
	err = m.Load(prog)
	rec.end(id)
	return m, err
}

func (q *queensInst) setup() error {
	_, err := q.build(nil)
	return err
}

func (q *queensInst) run(rec *recorder) (outcome, time.Duration, error) {
	m, err := q.build(rec)
	if err != nil {
		return outcome{}, 0, err
	}
	if q.armed {
		m.EnableTracing(0)
		m.EnableTimeline(0)
	}
	var windows []float64
	t0 := time.Now()
	if rec != nil {
		err = spanWindows(rec, m, &windows, func() (bool, error) { return m.RunWindow(q.window) })
	}
	var res sim.Result
	if err == nil {
		res, err = m.Run() // after the windows: already complete, returns the result
	}
	dur := time.Since(t0)
	if err != nil {
		return outcome{}, 0, err
	}
	out, err := finishMachine(rec, m, res, q.want, 0)
	out.windows = windows
	return out, dur, err
}

// ---- ckpt64 ----

// ckptInst holds one donor machine stopped at a fixed cycle. Each
// operation is one Snapshot + Restore round trip of it; finish runs the
// donor and the last twin to completion and requires them to agree.
type ckptInst struct {
	q     *queensInst
	at    uint64
	donor *sim.Machine
	base  map[string]uint64 // the donor's counters at the snapshot cycle
	twin  *sim.Machine      // restored from img
	img   []byte            // the last image
	enc   []float64
	dec   []float64
}

func prepareCkpt(seed int64, sz *sizes) (instance, error) {
	q, err := newQueensInst(sz.ckptNodes, sz.ckptQueens, 0, seed, sz)
	if err != nil {
		return nil, err
	}
	donor, err := q.build(nil)
	if err != nil {
		return nil, err
	}
	done, err := donor.RunWindow(sz.ckptCycle)
	if err != nil {
		return nil, err
	}
	if done {
		return nil, fmt.Errorf("ckpt64: program finished before cycle %d", sz.ckptCycle)
	}
	base := layerCounts(donor.CounterRegistry().Snapshot())
	return &ckptInst{q: q, at: sz.ckptCycle, donor: donor, base: base}, nil
}

func (c *ckptInst) setup() error { return c.q.setup() }

func (c *ckptInst) run(rec *recorder) (outcome, time.Duration, error) {
	c.twin, c.img = nil, nil // the last round trip's, now garbage
	t0 := time.Now()
	id := rec.begin("snapshot/encode")
	img, err := c.donor.Snapshot()
	rec.end(id)
	t1 := time.Now()
	if err != nil {
		return outcome{}, 0, err
	}
	id = rec.begin("snapshot/restore")
	twin, err := sim.Restore(img, sim.RestoreOverrides{})
	rec.end(id)
	t2 := time.Now()
	if err != nil {
		return outcome{}, 0, err
	}
	c.twin, c.img = twin, img
	c.enc = append(c.enc, t1.Sub(t0).Seconds())
	c.dec = append(c.dec, t2.Sub(t1).Seconds())
	// The image of one machine at one cycle must encode identically
	// every time; the rep-to-rep identity check compares this digest.
	d := newDigester()
	d.h.Write(img)
	return outcome{digest: d.sum()}, t2.Sub(t0), nil
}

// ckptTwins is how many machines restored from the last image finish
// the run beside the donor: each must finish exactly as the donor does,
// and the fastest of the completions is the one timed.
const ckptTwins = 3

func (c *ckptInst) finish(rec *recorder) (outcome, time.Duration, error) {
	if c.twin == nil {
		return outcome{}, 0, fmt.Errorf("ckpt64: no round trip completed")
	}
	complete := func(span string, m *sim.Machine) (outcome, time.Duration, error) {
		id := rec.begin(span)
		t0 := time.Now()
		res, err := m.Run()
		d := time.Since(t0)
		rec.end(id)
		if err != nil {
			return outcome{}, 0, err
		}
		out, err := finishMachine(rec, m, res, c.q.want, c.at)
		return out, d, err
	}
	outD, dur, err := complete("run/donor", c.donor)
	if err != nil {
		return outcome{}, 0, err
	}
	for i, twin := 0, c.twin; i < ckptTwins; i++ {
		if i > 0 {
			if twin, err = sim.Restore(c.img, sim.RestoreOverrides{}); err != nil {
				return outcome{}, 0, err
			}
		}
		outT, d, err := complete("run/twin", twin)
		if err != nil {
			return outcome{}, 0, err
		}
		if outD.digest != outT.digest {
			return outcome{}, 0, fmt.Errorf("ckpt64: restored twin finished differently from its donor (%s vs %s)", outT.digest, outD.digest)
		}
		dur = min(dur, d)
	}
	// The ledger prices the completion run, so it gets the counts of
	// that run alone.
	outD.counts = deltaCounts(outD.counts, c.base)
	outD.extra = map[string]float64{
		"snapshot.encode_s":       median(c.enc),
		"snapshot.decode_s":       median(c.dec),
		"snapshot.image_mb":       float64(len(c.img)) / (1 << 20),
		"snapshot.bytes_per_node": float64(len(c.img)) / float64(c.q.nodes),
	}
	return outD, dur, nil
}

// ---- grid_perfect ----

type gridInst struct {
	cfg   april.Table3Config
	want  map[string]string // program -> expected value
	paper []paperRow
}

func prepareGrid(seed int64, sz *sizes) (instance, error) {
	g := &gridInst{want: map[string]string{}}
	g.cfg = april.DefaultTable3Config()
	g.cfg.Sizes = sz.grid
	g.cfg.AprilProcs, g.cfg.EncoreProcs = sz.aprilProcs, sz.encoreProcs
	g.cfg.Workers = 1
	// The seed slides factor's interval: other numbers to factor, the
	// same count of them.
	shift := int(newRand(seed).Int63n(64))
	g.cfg.Sizes.FactorLo += shift
	g.cfg.Sizes.FactorHi += shift
	keys := map[string]string{
		"fib":    fmt.Sprintf("fib %d", sz.grid.FibN),
		"factor": "factor",
		"queens": fmt.Sprintf("queens %d", sz.grid.QueensN),
		"speech": "speech",
	}
	for _, name := range bench.Names {
		v, err := expected(keys[name], g.cfg.Sizes.Source(name))
		if err != nil {
			return nil, err
		}
		g.want[name] = v
	}
	var err error
	g.paper, err = loadPaperTable3()
	return g, err
}

// setup builds what one grid row's widest run builds, for each of the
// four programs: a 16-processor perfect-memory machine, the program
// compiled for it, loaded.
func (g *gridInst) setup() error {
	procs := g.cfg.AprilProcs[len(g.cfg.AprilProcs)-1]
	for _, name := range bench.Names {
		m, err := sim.New(sim.Config{Nodes: procs, Profile: rts.APRIL})
		if err != nil {
			return err
		}
		prog, err := mult.Compile(g.cfg.Sizes.Source(name), mult.Mode{HardwareFutures: true}, m.StaticHeap())
		if err != nil {
			return err
		}
		if err := m.Load(prog); err != nil {
			return err
		}
	}
	return nil
}

func (g *gridInst) run(rec *recorder) (outcome, time.Duration, error) {
	var (
		stats []april.RunStats
		occ   harness.Occupancy
	)
	cfg := g.cfg
	cfg.Stats, cfg.Occupancy = &stats, &occ
	id := rec.begin("run/table3")
	t0 := time.Now()
	rows, err := april.Table3(cfg)
	dur := time.Since(t0)
	rec.end(id)
	if err != nil {
		return outcome{}, 0, err
	}
	if rec != nil {
		// One worker runs the grid in order, so each run starts where
		// the previous one ended.
		at := rec.spans[id].Start
		for _, s := range stats {
			d := time.Duration(s.Perf.WallSeconds * float64(time.Second))
			rec.add("run/"+s.Label, id, at, d)
			at += d
		}
	}
	pid := rec.begin("stats/package")
	defer rec.end(pid)
	for _, r := range rows {
		if r.Result != g.want[r.Program] {
			return outcome{}, 0, fmt.Errorf("%s/%s: wrong program value %s, want %s", r.Program, r.System, r.Result, g.want[r.Program])
		}
	}
	out := outcome{counts: map[string]uint64{}}
	d := newDigester()
	for _, s := range stats {
		out.cycles += s.Cycles
		out.nodeCycles += s.Cycles * uint64(s.Nodes)
		out.useful += s.Total.UsefulCycles
		out.total += s.Total.TotalCycles()
		out.counts["proc.instructions"] += s.Total.Instructions
		out.counts["proc.useful_cycles"] += s.Total.UsefulCycles
		out.counts["proc.wait_cycles"] += s.Total.WaitCycles
		out.counts["proc.trap_cycles"] += s.Total.TrapCycles
		out.counts["proc.idle_cycles"] += s.Total.IdleCycles
		out.counts["proc.loads"] += s.Total.LoadCount
		out.counts["proc.stores"] += s.Total.StoreCount
		out.counts["proc.switches"] += s.ContextSwitches
		if s.Epoch != nil {
			out.counts["epoch.cycles"] += s.Epoch.Cycles
		}
		d.str(s.Label)
		d.str(s.Result)
		d.u64(s.Cycles, s.ContextSwitches, s.Total.Instructions, s.Total.UsefulCycles, s.Total.WaitCycles,
			s.Total.TrapCycles, s.Total.IdleCycles, s.Total.LoadCount, s.Total.StoreCount)
		d.u64(s.Total.Traps[:]...)
	}
	out.cyclesRun = out.cycles
	out.counts["machine.cycles"] = out.cycles
	out.digest = d.sum()
	out.extra = map[string]float64{
		"harness.grid_busy_frac": occ.BusyFraction(),
		"model.table3_log_err":   table3LogErr(rows, g.paper),
	}
	return out, dur, nil
}

// ---- synth64_stream ----

// synthInst is seed-independent by construction: workload.Run seeds its
// threads itself. The seed is accepted and ignored, and the output says
// so.
type synthInst struct {
	cfg    workload.Config
	window uint64
}

func prepareSynth(_ int64, sz *sizes) (instance, error) {
	return &synthInst{cfg: sz.synth, window: sz.window}, nil
}

// setup builds the machine workload.Run builds first: the set-up is
// inside the public call in the timed runs, so it is timed here on its
// own.
func (s *synthInst) setup() error {
	_, err := synthMachine(s.cfg)
	return err
}

func (s *synthInst) run(rec *recorder) (outcome, time.Duration, error) {
	var (
		meas   workload.Measurement
		counts map[string]uint64
		wins   []float64
		err    error
	)
	t0 := time.Now()
	if rec == nil {
		meas, err = workload.Run(s.cfg)
	} else {
		meas, counts, wins, err = synthTraced(rec, s.cfg, s.window)
	}
	dur := time.Since(t0)
	if err != nil {
		return outcome{}, 0, err
	}
	if !(meas.Utilization > 0 && meas.Utilization <= 1 && meas.MissRatio > 0 && meas.RemoteLatency > float64(s.cfg.MemLatency)) {
		return outcome{}, 0, fmt.Errorf("synth64_stream: implausible measurement %+v", meas)
	}
	cycles := s.cfg.WarmupCycles + s.cfg.Cycles
	total := s.cfg.Cycles * uint64(s.cfg.Nodes)
	d := newDigester()
	d.f64(meas.Utilization, meas.MissPerCycle, meas.RemoteLatency, meas.MissRatio)
	return outcome{
		cycles: cycles, cyclesRun: cycles, nodeCycles: cycles * uint64(s.cfg.Nodes),
		useful: uint64(math.Round(meas.Utilization * float64(total))), total: total,
		digest: d.sum(), counts: counts, windows: wins,
	}, dur, nil
}

// ---- modelcheck16 ----

type modelInst struct{ cfg bench.ModelCheckConfig }

func prepareModelCheck(_ int64, sz *sizes) (instance, error) {
	return &modelInst{cfg: sz.model}, nil
}

// setup builds every cell's machine as bench.ModelCheck does before it
// runs it.
func (mi *modelInst) setup() error {
	for _, b := range mi.cfg.Benchmarks {
		for _, p := range mi.cfg.Procs {
			q := queensInst{nodes: p, src: mi.cfg.Sizes.Source(b)}
			if err := q.setup(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (mi *modelInst) run(rec *recorder) (outcome, time.Duration, error) {
	id := rec.begin("run/modelcheck")
	t0 := time.Now()
	rep, err := bench.ModelCheck(mi.cfg)
	dur := time.Since(t0)
	rec.end(id)
	if err != nil {
		return outcome{}, 0, err
	}
	pid := rec.begin("stats/package")
	defer rec.end(pid)
	want := map[string]string{}
	out := outcome{}
	d := newDigester()
	var errFib, errQueens, residentFib float64
	var usefulF, totalF float64
	maxProcs := mi.cfg.Procs[len(mi.cfg.Procs)-1]
	for _, r := range rep.Rows {
		if _, ok := want[r.Benchmark]; !ok {
			n := mi.cfg.Sizes.FibN
			if r.Benchmark == "queens" {
				n = mi.cfg.Sizes.QueensN
			}
			if want[r.Benchmark], err = expected(fmt.Sprintf("%s %d", r.Benchmark, n), mi.cfg.Sizes.Source(r.Benchmark)); err != nil {
				return outcome{}, 0, err
			}
		}
		if r.Result != want[r.Benchmark] {
			return outcome{}, 0, fmt.Errorf("%s %dp: wrong program value %s, want %s", r.Benchmark, r.Procs, r.Result, want[r.Benchmark])
		}
		out.cycles += r.Cycles
		out.nodeCycles += r.Cycles * uint64(r.Procs)
		procCycles := float64(r.Cycles) * float64(r.Procs)
		usefulF += r.MeasuredUtil * procCycles
		totalF += procCycles
		rel := math.Abs(r.RelErrEq1)
		switch r.Benchmark {
		case "fib":
			errFib = math.Max(errFib, rel)
			if r.Procs == maxProcs {
				residentFib = r.MeanResident
			}
		case "queens":
			errQueens = math.Max(errQueens, rel)
		}
		d.str(r.Benchmark)
		d.str(r.Result)
		d.u64(uint64(r.Procs), r.Cycles)
		d.f64(r.MeanResident, r.MissRate, r.RemoteLatency, r.MeasuredUtil, r.MeasuredModelScope, r.PredictedEq1, r.PredictedModel)
	}
	out.cyclesRun = out.cycles
	out.useful, out.total = uint64(math.Round(usefulF)), uint64(math.Round(totalF))
	out.digest = d.sum()
	out.extra = map[string]float64{
		"model.eq1_rel_err_max":        math.Max(errFib, errQueens),
		"model.eq1_rel_err_fib_max":    errFib,
		"model.eq1_rel_err_queens_max": errQueens,
		"model.mean_resident_fib16":    residentFib,
	}
	return out, dur, nil
}
