// Package april is a reproduction of "APRIL: A Processor Architecture
// for Multiprocessing" (Agarwal, Lim, Kranz, Kubiatowicz — ISCA 1990):
// an instruction-level simulator for the APRIL coarse-grain
// multithreaded processor and the ALEWIFE machine around it, a compiler
// for Mul-T mini (the paper's parallel Scheme subset with futures), the
// run-time system with eager and lazy task creation, and the Section 8
// analytical performance model.
//
// Quick start:
//
//	res, err := april.Run(`
//	    (define (fib n)
//	      (if (< n 2) n (+ (future (fib (- n 1))) (future (fib (- n 2))))))
//	    (fib 15)`,
//	    april.Options{Processors: 4})
//	fmt.Println(res.Value, res.Cycles)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduced tables and figures.
package april

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"april/internal/abi"
	"april/internal/bench"
	"april/internal/core"
	"april/internal/fault"
	"april/internal/isa"
	"april/internal/model"
	"april/internal/mult"
	"april/internal/obs"
	"april/internal/proc"
	"april/internal/rts"
	"april/internal/sim"
	"april/internal/snapshot"
	"april/internal/trace"
	"april/internal/workload"
)

// MachineType selects the simulated machine (Table 3's three systems).
type MachineType string

const (
	// APRIL is the SPARC-based APRIL: 4 task frames, 11-cycle context
	// switch, hardware future detection.
	APRIL MachineType = "april"
	// APRILCustom is the custom implementation sketched in Section 6.1
	// with a 4-cycle context switch.
	APRILCustom MachineType = "april-custom"
	// Encore is the Encore Multimax baseline: a conventional processor
	// with software future detection and heavyweight tasks.
	Encore MachineType = "encore"
)

func (mt MachineType) profile() (rts.Profile, error) {
	switch mt {
	case "", APRIL:
		return rts.APRIL, nil
	case APRILCustom:
		return rts.APRILCustom, nil
	case Encore:
		return rts.Encore, nil
	}
	return rts.Profile{}, fmt.Errorf("april: unknown machine type %q", mt)
}

// Tier is an execution path: TierCompiled (the default) or
// TierReference, its differential oracle. Simulated results are
// bit-identical under both; *Tier is a flag.Value ("compiled",
// "reference").
type Tier = sim.Tier

const (
	TierCompiled  = sim.TierCompiled
	TierReference = sim.TierReference
)

// AlewifeOptions enables the full memory system (caches + directory
// coherence + k-ary n-cube network) instead of the default
// zero-latency shared memory.
type AlewifeOptions = sim.AlewifeConfig

// FaultOptions arms the seeded perturbation plan (internal/fault):
// bounded per-hop delay jitter, transient link stalls, and delayed
// directory replies. Perturbations shift timing only — under any seed
// the program computes the same answer, just in a different number of
// cycles. The fault matrix (FaultMatrix) holds the simulator to that.
type FaultOptions = fault.Config

// DefaultFaultOptions returns a moderate perturbation plan for the
// given seed: up to 3 cycles of per-hop jitter, a transient 1-32 cycle
// stall roughly every 50th transmission, and directory replies delayed
// up to 8 cycles.
func DefaultFaultOptions(seed uint64) FaultOptions { return fault.Default(seed) }

// FaultReport is the crash-forensics snapshot attached to run-ending
// errors: per-node PC/thread/outstanding-miss state, scheduler queues,
// the network census, recorded invariant violations, and trace-ring
// tails. Render it with its Render method or `cmd/april -autopsy`.
type FaultReport = fault.Report

// Autopsy extracts the crash report from a run error, if it carries
// one (deadlock, livelock, cycle-budget exhaustion, invariant
// violation, or a recovered memory fault).
func Autopsy(err error) (*FaultReport, bool) {
	var ce *sim.CrashError
	if errors.As(err, &ce) {
		return ce.Report, true
	}
	return nil, false
}

// Options configures a run.
type Options struct {
	// Processors is the machine size (default 1).
	Processors int
	// Machine selects the cost profile and future-detection style.
	Machine MachineType
	// LazyFutures compiles (future X) to lazy task creation markers
	// instead of eager tasks (Section 3.2).
	LazyFutures bool
	// Sequential strips futures: the paper's "T seq" configuration.
	Sequential bool
	// Alewife, when non-nil, simulates the full memory system.
	Alewife *AlewifeOptions
	// Output receives the program's (print ...) output.
	Output io.Writer
	// MemoryBytes sizes simulated memory; MaxCycles bounds the run.
	MemoryBytes uint32
	MaxCycles   uint64
	// Trace, when non-nil, enables the observability subsystem for the
	// run: event tracing, the utilization timeline, and the counter
	// registry. Tracing never perturbs simulated results.
	Trace *TraceOptions
	// Tier selects the execution path (default TierCompiled). Both
	// tiers compute bit-identical results; TierReference exists for
	// differential debugging of the simulator itself.
	Tier Tier
	// Faults, when non-nil, arms seeded timing perturbations (see
	// FaultOptions). Requires Alewife; perfect memory has no network to
	// perturb.
	Faults *FaultOptions
	// Check enables the runtime invariant checkers: coherence state
	// agreement on every protocol transition, full/empty consistency at
	// trap boundaries, scheduler thread conservation, and message-pool
	// ownership. Violations abort the run with a crash report. Checking
	// never perturbs simulated results; it runs on TierReference.
	Check bool
	// DeadlockWindow overrides the watchdog's no-retirement window in
	// cycles (0 = the 3M default).
	DeadlockWindow uint64
	// Serve, when non-empty, starts the live introspection server
	// (internal/obs) on that host:port (":0" picks a free port) for the
	// duration of the run: /progress, /counters, /metrics (Prometheus),
	// /timeline (SSE), /trace. The run advances in RunWindow slices so
	// handlers snapshot only quiescent machine state; the observatory is
	// observation-only — simulated results are bit-identical with it on
	// or off (the differential matrix in observatory_test.go proves it).
	Serve string
	// ServeNotify, when non-nil, receives the server's base URL (e.g.
	// "http://127.0.0.1:41873") once it is listening.
	ServeNotify func(url string)
	// CheckpointEvery, when nonzero, writes a restorable machine image
	// into CheckpointDir every N simulated cycles (atomic write-rename;
	// the last CheckpointKeep images are retained, default 8). A run
	// killed or crashed mid-flight resumes from the newest image with
	// Restore — bit-identically, reaching the same final state the
	// uninterrupted run would have. Checkpointing composes with Serve
	// (images are written between windows, and /checkpoint serves one
	// on demand).
	CheckpointEvery uint64
	CheckpointDir   string
	CheckpointKeep  int
	// SabotageCycle, when nonzero, deliberately corrupts scheduler
	// state at that cycle (a thread marked dead without recycling) so
	// the invariant checkers must report a violation there. It is part
	// of the run's identity and fires deterministically under every
	// tier — the test and demo hook for crash recovery and Bisect.
	SabotageCycle uint64
}

// TraceOptions selects a run's observability outputs. Any nil writer
// disables that output; enabling none makes the run equivalent to an
// untraced one.
type TraceOptions struct {
	// ChromeOut receives the event trace in Chrome trace-event JSON
	// (load in Perfetto or chrome://tracing: one process per node, one
	// thread per task frame).
	ChromeOut io.Writer
	// TimelineOut receives the per-node activity time series, CSV by
	// default or JSON rows when TimelineJSON is set.
	TimelineOut  io.Writer
	TimelineJSON bool
	// CountersOut receives the unified end-of-run counter snapshot
	// (scheduler, per-node processor/cache/directory, network) as JSON.
	CountersOut io.Writer
	// SampleInterval is the timeline window in cycles
	// (0 = trace.DefaultSampleInterval).
	SampleInterval uint64
	// Capacity is the per-node event ring size; the ring keeps the most
	// recent events (0 = trace.DefaultCapacity).
	Capacity int
}

// enable attaches the requested observers to a built machine. Already
// attached observers are kept (a restored machine arms them during
// decode so ring cursors continue from the image).
func (t *TraceOptions) enable(m *sim.Machine) {
	if t.ChromeOut != nil && m.Tracer() == nil {
		m.EnableTracing(t.Capacity)
	}
	if t.TimelineOut != nil && m.Sampler() == nil {
		m.EnableTimeline(t.SampleInterval)
	}
}

// write emits the requested outputs after a completed run.
func (t *TraceOptions) write(m *sim.Machine, endCycle uint64) error {
	if t.ChromeOut != nil {
		if err := trace.WriteChrome(t.ChromeOut, m.Tracer(), m.Cfg.Profile.Frames, endCycle); err != nil {
			return fmt.Errorf("april: chrome trace: %w", err)
		}
	}
	if t.TimelineOut != nil {
		var err error
		if t.TimelineJSON {
			err = m.Sampler().WriteJSON(t.TimelineOut)
		} else {
			err = m.Sampler().WriteCSV(t.TimelineOut)
		}
		if err != nil {
			return fmt.Errorf("april: timeline: %w", err)
		}
	}
	if t.CountersOut != nil {
		if err := m.CounterRegistry().WriteJSON(t.CountersOut); err != nil {
			return fmt.Errorf("april: counters: %w", err)
		}
	}
	return nil
}

// executeRun drives a loaded machine to completion: trace observers
// on, then either one straight Run or — when Options.Serve names an
// address — the windowed serve loop, then the trace outputs.
func executeRun(m *sim.Machine, o Options) (sim.Result, error) {
	if o.Trace != nil {
		o.Trace.enable(m)
	}
	var res sim.Result
	var err error
	switch {
	case o.Serve != "":
		res, err = runServed(m, o)
	case o.CheckpointEvery > 0:
		res, err = runCheckpointed(m, o)
	default:
		res, err = m.Run()
	}
	if err != nil {
		return sim.Result{}, err
	}
	if o.Trace != nil {
		if err := o.Trace.write(m, res.Cycles); err != nil {
			return sim.Result{}, err
		}
	}
	return res, nil
}

// defaultCheckpointKeep is how many checkpoint images a run retains
// when Options.CheckpointKeep is zero: enough spread for the bisector
// to bound a late divergence without flooding the directory.
const defaultCheckpointKeep = 8

// checkpointer writes periodic machine images with atomic
// write-rename and bounded retention.
type checkpointer struct {
	every uint64
	dir   string
	keep  int
	next  uint64   // cycle at/after which the next image is due
	files []string // retained image paths, oldest first
}

func newCheckpointer(o Options, now uint64) (*checkpointer, error) {
	dir := o.CheckpointDir
	if dir == "" {
		dir = "."
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("april: checkpoint dir: %w", err)
	}
	keep := o.CheckpointKeep
	if keep <= 0 {
		keep = defaultCheckpointKeep
	}
	return &checkpointer{every: o.CheckpointEvery, dir: dir, keep: keep, next: now + o.CheckpointEvery}, nil
}

// maybeWrite checkpoints the machine if a boundary has passed. Must be
// called only at cycle boundaries (between RunWindow slices).
func (c *checkpointer) maybeWrite(m *sim.Machine) error {
	if m.Now() < c.next {
		return nil
	}
	img, err := m.Snapshot()
	if err != nil {
		return fmt.Errorf("april: checkpoint: %w", err)
	}
	path := filepath.Join(c.dir, fmt.Sprintf("ckpt-%012d.img", m.Now()))
	if err := writeDurable(path, img); err != nil {
		return fmt.Errorf("april: checkpoint: %w", err)
	}
	c.files = append(c.files, path)
	for len(c.files) > c.keep {
		os.Remove(c.files[0])
		c.files = c.files[1:]
	}
	m.SetCheckpointInfo(m.Now(), len(img), "april -restore "+path)
	c.next = m.Now() + c.every
	return nil
}

// writeDurable puts data at path so that a crash at any point leaves
// either the previous file or the whole new one: write a temporary
// file, sync it, rename it into place, then sync the directory so the
// rename itself survives. On failure the temporary file is removed.
func writeDurable(path string, data []byte) (err error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			os.Remove(tmp)
		}
	}()
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = dir.Sync()
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	return err
}

// runCheckpointed drives the machine in CheckpointEvery-cycle windows,
// writing an image at each boundary. A crash mid-window still leaves
// the previous boundary's image on disk, and the crash report names
// it.
func runCheckpointed(m *sim.Machine, o Options) (sim.Result, error) {
	ck, err := newCheckpointer(o, m.Now())
	if err != nil {
		return sim.Result{}, err
	}
	for {
		done, err := m.RunWindow(ck.every)
		if err != nil {
			return sim.Result{}, err
		}
		if done {
			return m.Run()
		}
		if err := ck.maybeWrite(m); err != nil {
			return sim.Result{}, err
		}
	}
}

// serveWindow is the introspection server's slice length in cycles:
// the run advances this far between chances for HTTP handlers to
// snapshot, so a curl waits at most one window (a few milliseconds of
// host time) while the coordinator never blocks longer than one
// snapshot.
const serveWindow = 65536

// runServed runs the machine under the live introspection server. The
// sampler and tracer are armed if the caller hadn't (both are
// observation-only), every machine advance happens inside srv.Step's
// gate, and the server survives exactly as long as the run.
func runServed(m *sim.Machine, o Options) (sim.Result, error) {
	if m.Sampler() == nil {
		var interval uint64
		if o.Trace != nil {
			interval = o.Trace.SampleInterval
		}
		m.EnableTimeline(interval)
	}
	if m.Tracer() == nil {
		var capacity int
		if o.Trace != nil {
			capacity = o.Trace.Capacity
		}
		m.EnableTracing(capacity)
	}
	reg := m.CounterRegistry()
	srv := obs.NewServer(obs.Hooks{
		Progress: func() obs.Progress {
			stats := m.TotalStats()
			return obs.Progress{
				Cycle:        m.Now(),
				BudgetCycles: m.Cfg.MaxCycles,
				Instructions: stats.Instructions,
				Utilization:  stats.Utilization(),
				Nodes:        len(m.Nodes),
			}
		},
		Counters: reg.Snapshot,
		Timeline: func(from int) []trace.Sample {
			rows := m.Sampler().Rows()
			if from > len(rows) {
				from = len(rows)
			}
			return rows[from:]
		},
		ChromeTrace: func(w io.Writer) error {
			return trace.WriteChrome(w, m.Tracer(), m.Cfg.Profile.Frames, m.Now())
		},
		Checkpoint: m.Snapshot,
	})
	url, err := srv.Start(o.Serve)
	if err != nil {
		return sim.Result{}, err
	}
	defer srv.Close()
	if o.ServeNotify != nil {
		o.ServeNotify(url)
	}
	var ck *checkpointer
	if o.CheckpointEvery > 0 {
		if ck, err = newCheckpointer(o, m.Now()); err != nil {
			return sim.Result{}, err
		}
	}
	var done bool
	var runErr error
	for !done && runErr == nil {
		srv.Step(func() {
			if done, runErr = m.RunWindow(serveWindow); runErr == nil && !done && ck != nil {
				runErr = ck.maybeWrite(m)
			}
		})
	}
	if runErr != nil {
		return sim.Result{}, runErr
	}
	// Package the final Result (and close the last sampler window)
	// under the gate too; Run returns immediately once MainDone.
	var res sim.Result
	srv.Step(func() { res, runErr = m.Run() })
	if runErr != nil {
		return sim.Result{}, runErr
	}
	srv.Finish(res.Formatted)
	return res, nil
}

func (o Options) mode() mult.Mode {
	return mult.Mode{
		HardwareFutures: o.Machine != Encore,
		LazyFutures:     o.LazyFutures,
		Sequential:      o.Sequential,
	}
}

func (o Options) build() (*sim.Machine, *isa.Program, error) {
	prof, err := o.Machine.profile()
	if err != nil {
		return nil, nil, err
	}
	if o.Faults != nil && o.Alewife == nil {
		return nil, nil, errors.New("april: Faults requires Alewife (perfect memory has no network to perturb)")
	}
	m, err := sim.New(sim.Config{
		Nodes:          max(1, o.Processors),
		Profile:        prof,
		Lazy:           o.LazyFutures,
		MemoryBytes:    o.MemoryBytes,
		MaxCycles:      o.MaxCycles,
		Out:            o.Output,
		Alewife:        o.Alewife,
		Tier:           o.Tier,
		Faults:         o.Faults,
		Check:          o.Check,
		DeadlockWindow: o.DeadlockWindow,
		SabotageCycle:  o.SabotageCycle,
	})
	if err != nil {
		return nil, nil, err
	}
	return m, nil, nil
}

// Result reports a completed run.
type Result struct {
	// Value is the printed form of the program's final value.
	Value string `json:"value"`
	// Cycles is the simulated execution time.
	Cycles uint64 `json:"cycles"`
	// Instructions retired across all processors.
	Instructions uint64 `json:"instructions"`
	// Utilization is useful cycles / total cycles across processors.
	Utilization float64 `json:"utilization"`
	// ContextSwitches across all processors.
	ContextSwitches uint64 `json:"context_switches"`
	// TasksCreated counts eager tasks; Steals counts lazy continuation
	// steals; TouchesResolved/TouchesUnresolved count future touches.
	TasksCreated      uint64 `json:"tasks_created"`
	Steals            uint64 `json:"steals"`
	TouchesResolved   uint64 `json:"touches_resolved"`
	TouchesUnresolved uint64 `json:"touches_unresolved"`
	// CacheMissTraps counts controller-forced context switches
	// (ALEWIFE mode).
	CacheMissTraps uint64 `json:"cache_miss_traps"`
	// Perf is the host-side throughput of this run (simulated
	// cycles/sec, MIPS, wall time). It describes the simulator, not the
	// simulated machine, and varies run to run, so it stays out of the
	// JSON form.
	Perf RunPerf `json:"-"`
}

// RunPerf reports host-side simulator throughput for a run or a grid.
type RunPerf = proc.Perf

// Run compiles and executes a Mul-T mini program.
func Run(source string, o Options) (Result, error) {
	start := time.Now()
	m, _, err := o.build()
	if err != nil {
		return Result{}, err
	}
	prog, err := mult.Compile(source, o.mode(), m.StaticHeap())
	if err != nil {
		return Result{}, err
	}
	if err := m.Load(prog); err != nil {
		return Result{}, err
	}
	res, err := executeRun(m, o)
	if err != nil {
		return Result{}, err
	}
	return packageResult(m, res, start), nil
}

// packageResult reduces a completed machine to the public Result.
func packageResult(m *sim.Machine, res sim.Result, start time.Time) Result {
	stats := m.TotalStats()
	s := m.Sched.Stats
	return Result{
		Value:             res.Formatted,
		Cycles:            res.Cycles,
		Instructions:      stats.Instructions,
		Utilization:       stats.Utilization(),
		ContextSwitches:   m.Switches(),
		TasksCreated:      s.TasksCreated,
		Steals:            s.Steals,
		TouchesResolved:   s.TouchesResolved,
		TouchesUnresolved: s.TouchesUnresolved,
		CacheMissTraps:    stats.Traps[core.TrapCacheMiss],
		Perf:              proc.NewPerf(res.Cycles, stats.Instructions, time.Since(start)),
	}
}

// Restore resumes a run from a checkpoint image written by a
// CheckpointEvery run (or downloaded from a server's /checkpoint). The
// image is self-contained — program, configuration, and complete
// machine state — so Options fields that describe what to run
// (Processors, Machine, Alewife, Faults, memory and cycle budgets) are
// ignored; host-side fields still apply: Output, Tier, Check, Trace,
// Serve, and the Checkpoint* fields
// (resuming a checkpointed run keeps checkpointing). The resumed run
// reaches a final state bit-identical to the uninterrupted original.
func Restore(image []byte, o Options) (Result, error) {
	start := time.Now()
	ov := sim.RestoreOverrides{
		Out:   o.Output,
		Tier:  o.Tier,
		Check: o.Check,
	}
	if t := o.Trace; t != nil {
		ov.Trace = t.ChromeOut != nil
		ov.Timeline = t.TimelineOut != nil
		ov.TimelineInterval = t.SampleInterval
	}
	m, err := sim.Restore(image, ov)
	if err != nil {
		return Result{}, err
	}
	res, err := executeRun(m, o)
	if err != nil {
		return Result{}, err
	}
	return packageResult(m, res, start), nil
}

// RestoreFile is Restore over an image file path.
func RestoreFile(path string, o Options) (Result, error) {
	img, err := os.ReadFile(path)
	if err != nil {
		return Result{}, fmt.Errorf("april: restore: %w", err)
	}
	return Restore(img, o)
}

// BisectOptions configures automatic divergence bisection.
type BisectOptions struct {
	// Dir is a checkpoint directory holding ckpt-*.img images of one
	// run (all must share the run identity hash).
	Dir string
	// Log, when non-nil, receives one line per probe.
	Log io.Writer
}

// BisectResult reports where a run first violates its invariants.
type BisectResult struct {
	// FirstBadCycle is the exact first cycle at which the full
	// invariant audit fails; at CleanCycle (= FirstBadCycle-1 unless a
	// checkpoint bound it tighter) it still passes.
	FirstBadCycle uint64
	CleanCycle    uint64
	// Checkpoint is the image the culprit window replays from: restore
	// it and run FirstBadCycle-CleanCycle cycles to watch the
	// violation happen.
	Checkpoint string
	// Report is the autopsy scoped to the first violating cycle.
	Report *FaultReport
}

// Bisect pins the first invariant-violating cycle of a checkpointed
// run. It binary-searches the retained checkpoints — restoring each
// candidate under the reference tier with checkers armed and running
// the full invariant audit at its cycle — to bound the violation
// between a clean and a dirty image, then binary-searches cycles
// inside that window by replaying from the clean image. Every probe is
// a fresh deterministic restore, so the answer is exact: the returned
// cycle fails the audit and the cycle before it passes.
func Bisect(o BisectOptions) (BisectResult, error) {
	logf := func(format string, args ...any) {
		if o.Log != nil {
			fmt.Fprintf(o.Log, format+"\n", args...)
		}
	}
	cks, err := loadCheckpoints(o.Dir)
	if err != nil {
		return BisectResult{}, err
	}
	logf("bisect: %d checkpoints, cycles %d..%d", len(cks), cks[0].cycle, cks[len(cks)-1].cycle)

	// Phase 1: first dirty checkpoint. probeAt audits a restored image
	// in place; the predicate is monotone because a violation is
	// persistent state corruption.
	lo, hi := -1, len(cks)
	var hiReport *FaultReport
	for lo+1 < hi {
		mid := (lo + hi) / 2
		bad, rep, err := probeAudit(cks[mid].img, cks[mid].cycle)
		if err != nil {
			return BisectResult{}, fmt.Errorf("april: bisect: probe %s: %w", cks[mid].path, err)
		}
		logf("bisect: checkpoint cycle %d: %s", cks[mid].cycle, verdict(bad))
		if bad {
			hi, hiReport = mid, rep
		} else {
			lo = mid
		}
	}
	if hi == 0 {
		return BisectResult{}, fmt.Errorf("april: bisect: earliest retained checkpoint (cycle %d) already violates; retain more images or checkpoint more often", cks[0].cycle)
	}

	var cleanCkpt ckptFile
	var dirtyCycle uint64
	if hi == len(cks) {
		// Every checkpoint is clean: the violation (if any) happens
		// after the last one. Run forward under checkers to find it.
		cleanCkpt = cks[len(cks)-1]
		bad, rep, err := probeAudit(cleanCkpt.img, ^uint64(0))
		if err != nil {
			return BisectResult{}, fmt.Errorf("april: bisect: forward run from cycle %d: %w", cleanCkpt.cycle, err)
		}
		if !bad {
			return BisectResult{}, fmt.Errorf("april: bisect: no violation — the run completes cleanly from every retained checkpoint")
		}
		dirtyCycle, hiReport = rep.Cycle, rep
		logf("bisect: forward run detects violation by cycle %d", dirtyCycle)
	} else {
		cleanCkpt = cks[hi-1]
		dirtyCycle = cks[hi].cycle
	}

	// Phase 2: exact cycle inside (clean.cycle, dirtyCycle], replaying
	// from the clean image each probe.
	cLo, cHi := cleanCkpt.cycle, dirtyCycle
	for cLo+1 < cHi {
		mid := cLo + (cHi-cLo)/2
		bad, rep, err := probeAudit(cleanCkpt.img, mid)
		if err != nil {
			return BisectResult{}, fmt.Errorf("april: bisect: replay to cycle %d: %w", mid, err)
		}
		logf("bisect: cycle %d: %s", mid, verdict(bad))
		if bad {
			cHi, hiReport = mid, rep
		} else {
			cLo = mid
		}
	}
	logf("bisect: first violating cycle %d (clean through %d)", cHi, cLo)
	return BisectResult{
		FirstBadCycle: cHi,
		CleanCycle:    cLo,
		Checkpoint:    cleanCkpt.path,
		Report:        hiReport,
	}, nil
}

func verdict(bad bool) string {
	if bad {
		return "dirty"
	}
	return "clean"
}

type ckptFile struct {
	path  string
	cycle uint64
	img   []byte
}

// loadCheckpoints reads a checkpoint directory: every ckpt-*.img,
// validated and sorted by cycle, all from the same run.
func loadCheckpoints(dir string) ([]ckptFile, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "ckpt-*.img"))
	if err != nil {
		return nil, fmt.Errorf("april: bisect: %w", err)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("april: bisect: no ckpt-*.img images in %s", dir)
	}
	var cks []ckptFile
	var hash uint64
	for _, path := range paths {
		img, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("april: bisect: %w", err)
		}
		hdr, err := snapshot.PeekHeader(img)
		if err != nil {
			return nil, fmt.Errorf("april: bisect: %s: %w", path, err)
		}
		if len(cks) == 0 {
			hash = hdr.ConfigHash
		} else if hdr.ConfigHash != hash {
			return nil, fmt.Errorf("april: bisect: %s belongs to a different run (config hash %#x, expected %#x)", path, hdr.ConfigHash, hash)
		}
		cks = append(cks, ckptFile{path: path, cycle: hdr.Cycle, img: img})
	}
	sort.Slice(cks, func(i, j int) bool { return cks[i].cycle < cks[j].cycle })
	return cks, nil
}

// probeAudit restores an image with checkers armed (so on the
// reference tier), advances to the target cycle (the image's own cycle
// probes in place; ^uint64(0) runs to completion), and audits. A
// mid-run invariant crash counts as dirty at the crash cycle.
func probeAudit(img []byte, target uint64) (bad bool, rep *FaultReport, err error) {
	m, err := sim.Restore(img, sim.RestoreOverrides{Check: true})
	if err != nil {
		return false, nil, err
	}
	if target == ^uint64(0) {
		// Run to completion; Run's own end-of-run sweep audits.
		if _, err := m.Run(); err != nil {
			if r, ok := Autopsy(err); ok && r.Reason == fault.ReasonInvariant {
				return true, r, nil
			}
			return false, nil, err
		}
		return false, nil, nil
	}
	if target > m.Now() {
		window := target - m.Now()
		if _, err := m.RunWindow(window); err != nil {
			if r, ok := Autopsy(err); ok && r.Reason == fault.ReasonInvariant {
				return true, r, nil
			}
			return false, nil, err
		}
	}
	if err := m.AuditNow(); err != nil {
		if r, ok := Autopsy(err); ok {
			return true, r, nil
		}
		return false, nil, err
	}
	return false, nil, nil
}

// Interpret evaluates a program with the sequential reference
// interpreter (the compiler's differential-testing oracle).
func Interpret(source string, output io.Writer) (string, error) {
	v, err := mult.NewInterp(output, 0).RunSource(source)
	if err != nil {
		return "", err
	}
	return mult.FormatValue(v), nil
}

// RunAssembly assembles and executes a raw APRIL assembly program (the
// syntax Disassemble emits). The program's main thread starts at the
// entry point (".entry label" or the "=>" marker) with its return
// address pointing at the __main_exit stub; stubs are appended
// automatically if the source does not define them, so a program can
// simply return through r5 or end with "trap 1" (main exit, value in
// r8).
func RunAssembly(source string, o Options) (Result, error) {
	start := time.Now()
	m, _, err := o.build()
	if err != nil {
		return Result{}, err
	}
	prog, err := isa.Assemble(source)
	if err != nil {
		return Result{}, err
	}
	appendStub := func(name string, service int) {
		if _, ok := prog.Symbols[name]; ok {
			return
		}
		prog.Symbols[name] = uint32(len(prog.Code))
		prog.Code = append(prog.Code, isa.Trap(abi.TrapImm(service, 0, 0)), isa.Halt)
	}
	appendStub(abi.SymTaskExit, abi.SvcTaskExit)
	appendStub(abi.SymMainExit, abi.SvcMainExit)
	if err := m.Load(prog); err != nil {
		return Result{}, err
	}
	res, err := executeRun(m, o)
	if err != nil {
		return Result{}, err
	}
	return packageResult(m, res, start), nil
}

// Assemble parses APRIL assembly into a loadable program (exposed for
// tools; see internal/isa for the syntax).
func Assemble(source string) (*isa.Program, error) { return isa.Assemble(source) }

// Disassemble compiles a program and returns the assembly listing.
func Disassemble(source string, o Options) (string, error) {
	m, _, err := o.build()
	if err != nil {
		return "", err
	}
	prog, err := mult.Compile(source, o.mode(), m.StaticHeap())
	if err != nil {
		return "", err
	}
	return prog.Disassemble(), nil
}

// --- Analytical model (Section 8) ---

// ModelParams are the Table 4 system parameters.
type ModelParams = model.Params

// ModelPoint is the model solution at one thread count.
type ModelPoint = model.Breakdown

// Figure5Point carries the Figure 5 component curves at one p.
type Figure5Point = model.Figure5Point

// DefaultModelParams returns Table 4's defaults (8000 processors, 3-D
// network of radix 20, 10-cycle context... see model.Default).
func DefaultModelParams() ModelParams { return model.Default() }

// Utilization solves the model for p resident threads.
func Utilization(params ModelParams, threads float64) ModelPoint {
	return params.Utilization(threads)
}

// Figure5 computes the component curves of Figure 5.
func Figure5(params ModelParams, maxThreads int) []Figure5Point {
	return params.Figure5(maxThreads)
}

// FormatFigure5 renders Figure 5 curves as a table.
func FormatFigure5(points []Figure5Point) string { return model.FormatFigure5(points) }

// SweepSwitchCost computes U(p) curves for several context-switch
// costs (the Section 6.1 design ablation).
func SweepSwitchCost(params ModelParams, costs []float64, maxThreads int) map[float64][]ModelPoint {
	return model.SweepSwitchCost(params, costs, maxThreads)
}

// --- Experiment harnesses ---

// Table3Row is one row of the reproduced Table 3.
type Table3Row = bench.Row

// Table3Config drives the Table 3 harness.
type Table3Config = bench.Table3Config

// Table3Sizes selects benchmark workload sizes.
type Table3Sizes = bench.Sizes

// RunStats is one grid run's full statistics dump (Table3Config.Stats;
// the april-bench -stats-json payload).
type RunStats = bench.RunStats

// DefaultTable3Config mirrors the paper's Table 3 configuration.
func DefaultTable3Config() Table3Config { return bench.DefaultTable3Config() }

// Table3 regenerates Table 3 (execution times of fib, factor, queens
// and speech across Encore / APRIL / APRIL-lazy, normalized to
// sequential T). The grid's independent runs fan across host cores
// (Table3Config.Workers); simulated results are identical at any
// worker count.
func Table3(cfg Table3Config) ([]Table3Row, error) { return bench.Table3(cfg) }

// BenchmarkSource returns the Mul-T source of a paper benchmark
// ("fib", "factor", "queens", "speech").
func BenchmarkSource(name string, sizes Table3Sizes) string { return sizes.Source(name) }

// PaperSizes and TestSizes are the standard workload scales.
var (
	PaperSizes = bench.PaperSizes
	TestSizes  = bench.TestSizes
)

// ValidationConfig drives the model-validation workload (E6).
type ValidationConfig = workload.Config

// ValidationPoint is one measured sweep point.
type ValidationPoint = workload.Measurement

// DefaultValidationConfig returns the E6 default machine.
func DefaultValidationConfig() ValidationConfig { return workload.DefaultConfig() }

// ValidateModel sweeps resident threads on the full ALEWIFE simulator,
// measuring m(p), T(p) and U(p) (experiment E6).
func ValidateModel(cfg ValidationConfig, maxThreads int) ([]ValidationPoint, error) {
	return workload.Sweep(cfg, maxThreads)
}

// LinearFit returns the least-squares a+b·x fit with its R² (used to
// check the model's linear-in-p assumptions against measurements).
func LinearFit(xs, ys []float64) (a, b, r2 float64) { return workload.LinearFit(xs, ys) }

// Version describes this reproduction.
const Version = "1.0.0"
