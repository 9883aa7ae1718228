package bench

import (
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"april/internal/harness"
	"april/internal/isa"
	"april/internal/mult"
	"april/internal/proc"
	"april/internal/rts"
	"april/internal/sim"
)

// PerfReport is the simulator-throughput measurement that
// cmd/april-bench -perf serializes to BENCH_simperf.json: the full
// Table 3 grid run three times on the same host — at the pre-overhaul
// cost profile (reference per-cycle loop, a single worker), with
// fast-forward, predecoded dispatch and the parallel harness but the
// compiled tier off, and finally with profile-guided basic-block
// superinstructions on — with a bit-identity cross-check across the
// three sets of rows.
type PerfReport struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	NumCPU      int    `json:"num_cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Sizes       string `json:"sizes"`
	Workers     int    `json:"workers"` // workers used by the optimized grid

	// Baseline: naive loop, one worker. Predecode: fast-forward and
	// predecoded per-op dispatch on Workers workers with the compiled
	// tier off. Optimized: the same plus profile-guided basic-block
	// superinstructions. All three cover the identical run grid.
	Baseline  proc.Perf `json:"baseline"`
	Predecode proc.Perf `json:"predecode"`
	Optimized proc.Perf `json:"optimized"`

	// Speedup is baseline wall time / optimized wall time;
	// CompiledVsPredecode is predecode wall time / optimized wall time
	// (the compiled tier's own contribution, workers held equal).
	Speedup             float64 `json:"speedup"`
	CompiledVsPredecode float64 `json:"compiled_vs_predecode"`

	// CompileThreshold is the block-translation threshold the compiled
	// grid ran with (the isa.DefaultCompileThreshold unless overridden).
	CompileThreshold int `json:"compile_threshold"`

	// RowsIdentical asserts the three grids produced byte-identical
	// simulated results (same cycle counts, same program outputs).
	RowsIdentical bool `json:"rows_identical"`

	// Alewife is the same before/after comparison on the full memory
	// system (caches + directory + torus) at a machine size the Table 3
	// grid never reaches — where the work-proportional run loop,
	// predecoded dispatch, and idle-router skip matter most.
	Alewife *AlewifeRow `json:"alewife,omitempty"`

	// CheckpointOverhead measures the snapshot/restore path across
	// machine sizes: serialize latency, image size, restore latency, and
	// a bit-identity cross-check of the restored run against the donor.
	CheckpointOverhead []CheckpointRow `json:"checkpoint_overhead,omitempty"`

	// WorkerOccupancy reports how the optimized grid's harness workers
	// spent the sweep: runs and busy time per worker against wall time.
	WorkerOccupancy *harness.Occupancy `json:"worker_occupancy,omitempty"`
}

// AlewifeRow is one ALEWIFE-mode throughput measurement: a single
// benchmark on the full memory system, run with the reference cost
// profile, with the compiled tier but epoch windows off (the
// pre-epoch configuration), and fully optimized (compiled tier plus
// multi-node epoch windows), with a bit-identity cross-check across
// all three.
type AlewifeRow struct {
	Benchmark string    `json:"benchmark"`
	Nodes     int       `json:"nodes"`
	Cycles    uint64    `json:"cycles"`
	Result    string    `json:"result"`
	Baseline  proc.Perf `json:"baseline"`
	Compiled  proc.Perf `json:"compiled_no_epoch"`
	Optimized proc.Perf `json:"optimized"`
	Speedup   float64   `json:"speedup"`
	// EpochSpeedup is compiled-without-epochs wall time over optimized
	// wall time: the epoch engine's own contribution on a multi-node
	// machine, everything else held equal.
	EpochSpeedup float64 `json:"epoch_speedup"`
	// Epoch is the optimized run's epoch telemetry.
	Epoch *EpochOverhead `json:"epoch,omitempty"`

	// Identical asserts the three runs agreed on cycles, result, and
	// every node's full statistics.
	Identical bool `json:"identical"`
	// NumCPU is the host the wall times were taken on (like the
	// checkpoint rows, this one can be regenerated apart from the rest).
	NumCPU int `json:"num_cpu"`
}

// CheckpointRow is one checkpoint-overhead measurement: the benchmark
// run to a mid-run cycle on an ALEWIFE machine, snapshotted, restored,
// and both copies run to completion with a bit-identity cross-check.
type CheckpointRow struct {
	Benchmark  string `json:"benchmark"`
	Nodes      int    `json:"nodes"`
	Cycle      uint64 `json:"cycle"` // cycle the image captures
	ImageBytes int    `json:"image_bytes"`
	// ImageBytesPerNode is the unit the image grows in: pages, cache
	// lines and threads the nodes have touched, not configured sizes.
	ImageBytesPerNode int `json:"image_bytes_per_node"`
	// SnapshotMS is the mean serialize latency over several snapshots of
	// the same quiescent machine; RestoreMS is one full image-to-machine
	// reconstruction (parse, rebuild, reinstall resident pages).
	SnapshotMS float64 `json:"snapshot_ms"`
	RestoreMS  float64 `json:"restore_ms"`
	// Identical asserts the donor and the restored machine agreed on
	// final cycles, result, and every node's full statistics.
	Identical bool `json:"identical"`
	// NumCPU is the host the latencies were taken on (the rows can be
	// regenerated apart from the rest of the report).
	NumCPU int `json:"num_cpu"`
}

// CheckpointSweep measures CheckpointRows for one benchmark across
// machine sizes: the cost of writing a restorable image mid-run (the
// -checkpoint-every price) and the proof that restoring it loses
// nothing.
func CheckpointSweep(benchName string, sizes Sizes, nodeSizes []int) ([]CheckpointRow, error) {
	src := sizes.Source(benchName)
	var rows []CheckpointRow
	for _, nodes := range nodeSizes {
		row, err := checkpointOnce(src, benchName, nodes)
		if err != nil {
			return nil, fmt.Errorf("checkpoint sweep %dp: %w", nodes, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func checkpointOnce(src, benchName string, nodes int) (CheckpointRow, error) {
	m, err := sim.New(sim.Config{
		Nodes:       nodes,
		Profile:     rts.APRIL,
		Alewife:     &sim.AlewifeConfig{},
		MemoryBytes: 2 << 30,
	})
	if err != nil {
		return CheckpointRow{}, err
	}
	prog, err := mult.Compile(src, mult.Mode{HardwareFutures: true}, m.StaticHeap())
	if err != nil {
		return CheckpointRow{}, err
	}
	if err := m.Load(prog); err != nil {
		return CheckpointRow{}, err
	}
	// Snapshot mid-run so the image carries real state: warm caches,
	// live threads, in-flight coherence traffic.
	const warm = 20000
	done, err := m.RunWindow(warm)
	if err != nil {
		return CheckpointRow{}, err
	}
	if done {
		return CheckpointRow{}, fmt.Errorf("%s finished before cycle %d; pick a longer benchmark", benchName, warm)
	}
	const iters = 3
	var img []byte
	start := time.Now()
	for i := 0; i < iters; i++ {
		if img, err = m.Snapshot(); err != nil {
			return CheckpointRow{}, err
		}
	}
	snapMS := time.Since(start).Seconds() * 1e3 / iters
	row := CheckpointRow{
		Benchmark:         benchName,
		Nodes:             nodes,
		Cycle:             m.Now(),
		ImageBytes:        len(img),
		SnapshotMS:        snapMS,
		ImageBytesPerNode: len(img) / nodes,
		NumCPU:            runtime.NumCPU(),
	}
	start = time.Now()
	twin, err := sim.Restore(img, sim.RestoreOverrides{})
	if err != nil {
		return CheckpointRow{}, err
	}
	row.RestoreMS = time.Since(start).Seconds() * 1e3
	donorRes, err := m.Run()
	if err != nil {
		return CheckpointRow{}, err
	}
	twinRes, err := twin.Run()
	if err != nil {
		return CheckpointRow{}, err
	}
	row.Identical = donorRes.Cycles == twinRes.Cycles && donorRes.Formatted == twinRes.Formatted
	for i := range m.Nodes {
		if !reflect.DeepEqual(m.Nodes[i].Proc.Stats, twin.Nodes[i].Proc.Stats) {
			row.Identical = false
			break
		}
	}
	return row, nil
}

// alewifeOpts selects the machine variant alewifeOnce measures.
type alewifeOpts struct {
	// reference selects the pre-overhaul cost profile: reference
	// stepping loop, opcode-switch interpreter.
	reference bool
	// disableEpoch keeps the compiled tier but turns multi-node epoch
	// windows off (sim.Config.DisableEpoch) — the PR 8 configuration.
	disableEpoch bool
}

// alewifeOnce runs one benchmark on a fresh full-memory-system machine.
func alewifeOnce(src string, nodes int, o alewifeOpts) (runOut, error) {
	// The GC bracket matches the wall-clock bracket: it covers machine
	// construction too.
	gcBefore := proc.TakeGCSnapshot()
	start := time.Now()
	m, err := sim.New(sim.Config{
		Nodes:              nodes,
		Profile:            rts.APRIL,
		Alewife:            &sim.AlewifeConfig{},
		DisableFastForward: o.reference,
		DisablePredecode:   o.reference,
		DisableEpoch:       o.disableEpoch,
	})
	if err != nil {
		return runOut{}, err
	}
	prog, err := mult.Compile(src, mult.Mode{HardwareFutures: true}, m.StaticHeap())
	if err != nil {
		return runOut{}, err
	}
	if err := m.Load(prog); err != nil {
		return runOut{}, err
	}
	res, err := m.Run()
	if err != nil {
		return runOut{}, err
	}
	gcAfter := proc.TakeGCSnapshot()
	out := runOut{
		cycles: res.Cycles,
		result: res.Formatted,
		perf:   proc.NewPerf(res.Cycles, m.TotalStats().Instructions, time.Since(start)),
	}
	out.perf.SetGC(gcBefore, gcAfter)
	for _, n := range m.Nodes {
		out.stats.PerNode = append(out.stats.PerNode, n.Proc.Stats)
	}
	out.stats.Epoch = epochOverhead(m)
	return out, nil
}

// AlewifePerf measures one AlewifeRow: the named benchmark on an
// ALEWIFE machine of the given size, reference vs compiled-without-
// epochs vs fully optimized.
func AlewifePerf(benchName string, sizes Sizes, nodes int) (AlewifeRow, error) {
	src := sizes.Source(benchName)
	base, err := alewifeOnce(src, nodes, alewifeOpts{reference: true})
	if err != nil {
		return AlewifeRow{}, fmt.Errorf("alewife reference run: %w", err)
	}
	comp, err := alewifeOnce(src, nodes, alewifeOpts{disableEpoch: true})
	if err != nil {
		return AlewifeRow{}, fmt.Errorf("alewife compiled-no-epoch run: %w", err)
	}
	opt, err := alewifeOnce(src, nodes, alewifeOpts{})
	if err != nil {
		return AlewifeRow{}, fmt.Errorf("alewife optimized run: %w", err)
	}
	same := func(a, b runOut) bool {
		return a.cycles == b.cycles && a.result == b.result &&
			reflect.DeepEqual(a.stats.PerNode, b.stats.PerNode)
	}
	row := AlewifeRow{
		Benchmark: benchName,
		Nodes:     nodes,
		Cycles:    opt.cycles,
		Result:    opt.result,
		Baseline:  base.perf,
		Compiled:  comp.perf,
		Optimized: opt.perf,
		Epoch:     opt.stats.Epoch,
		Identical: same(base, opt) && same(comp, opt),
		NumCPU:    runtime.NumCPU(),
	}
	if row.Optimized.WallSeconds > 0 {
		row.Speedup = row.Baseline.WallSeconds / row.Optimized.WallSeconds
		row.EpochSpeedup = row.Compiled.WallSeconds / row.Optimized.WallSeconds
	}
	return row, nil
}

// Table3Perf measures PerfReport for the given grid configuration
// (cfg.Naive, cfg.Workers and cfg.Perf are overridden per side).
func Table3Perf(cfg Table3Config, sizesName string) (PerfReport, error) {
	rep := PerfReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Sizes:       sizesName,
	}

	base := cfg
	base.Naive, base.Workers, base.Perf = true, 1, &rep.Baseline
	runtime.GC()
	gcBefore := proc.TakeGCSnapshot()
	baseRows, err := Table3(base)
	if err != nil {
		return PerfReport{}, fmt.Errorf("baseline grid: %w", err)
	}
	rep.Baseline.SetGC(gcBefore, proc.TakeGCSnapshot())

	pre := cfg
	pre.Naive, pre.NoCompile, pre.Perf = false, true, &rep.Predecode
	// Collect before each timed grid so no side inherits the previous
	// grid's heap target: the naive grid's allocation churn otherwise
	// leaves the pacer with a bloated goal that flatters whichever
	// side runs next (observed as a 2x GC-count skew between the
	// predecode and compiled grids despite identical alloc rates).
	runtime.GC()
	gcBefore = proc.TakeGCSnapshot()
	preRows, err := Table3(pre)
	if err != nil {
		return PerfReport{}, fmt.Errorf("predecode grid: %w", err)
	}
	rep.Predecode.SetGC(gcBefore, proc.TakeGCSnapshot())

	opt := cfg
	opt.Naive, opt.NoCompile, opt.Perf = false, false, &rep.Optimized
	var occ harness.Occupancy
	opt.Occupancy = &occ
	rep.Workers = harness.Workers(opt.Workers)
	rep.CompileThreshold = opt.CompileThreshold
	if rep.CompileThreshold == 0 {
		rep.CompileThreshold = isa.DefaultCompileThreshold
	}
	runtime.GC()
	gcBefore = proc.TakeGCSnapshot()
	optRows, err := Table3(opt)
	if err != nil {
		return PerfReport{}, fmt.Errorf("optimized grid: %w", err)
	}
	rep.Optimized.SetGC(gcBefore, proc.TakeGCSnapshot())
	rep.WorkerOccupancy = &occ

	rep.RowsIdentical = reflect.DeepEqual(baseRows, optRows) && reflect.DeepEqual(preRows, optRows)
	if rep.Optimized.WallSeconds > 0 {
		rep.Speedup = rep.Baseline.WallSeconds / rep.Optimized.WallSeconds
		rep.CompiledVsPredecode = rep.Predecode.WallSeconds / rep.Optimized.WallSeconds
	}

	// ALEWIFE-mode row: a 64-node full-memory-system run, the regime
	// the Table 3 grid (perfect memory, <= 16 nodes) never exercises.
	// queens is the longest-running benchmark that fits the default
	// stack arena at this node count (fib's eager task tree does not).
	alw, err := AlewifePerf("queens", cfg.Sizes, 64)
	if err != nil {
		return PerfReport{}, err
	}
	rep.Alewife = &alw

	// Checkpoint overhead: what -checkpoint-every costs per image at
	// several machine sizes, and proof the image restores losslessly.
	rep.CheckpointOverhead, err = CheckpointSweep("queens", cfg.Sizes, []int{16, 64, 256})
	if err != nil {
		return PerfReport{}, err
	}
	return rep, nil
}

// JSON renders the report for BENCH_simperf.json.
func (r PerfReport) JSON() []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic(err) // the report is plain data; marshal cannot fail
	}
	return append(b, '\n')
}

// Summary is the one-line human rendering.
func (r PerfReport) Summary() string {
	ident := "IDENTICAL"
	if !r.RowsIdentical {
		ident = "MISMATCH"
	}
	s := fmt.Sprintf("baseline %.2fs -> predecode %.2fs -> compiled %.2fs (%.2fx overall, %.2fx from compile @ threshold %d, %d workers, results %s)",
		r.Baseline.WallSeconds, r.Predecode.WallSeconds, r.Optimized.WallSeconds,
		r.Speedup, r.CompiledVsPredecode, r.CompileThreshold, r.Workers, ident)
	s += fmt.Sprintf("\n  gc: %.0f -> %.0f allocs/Mcycle, %.0f -> %.0f KB/Mcycle, %d -> %d GCs",
		r.Baseline.AllocsPerMcycle, r.Optimized.AllocsPerMcycle,
		r.Baseline.BytesPerMcycle/1024, r.Optimized.BytesPerMcycle/1024,
		r.Baseline.HostNumGC, r.Optimized.HostNumGC)
	if a := r.Alewife; a != nil {
		aident := "IDENTICAL"
		if !a.Identical {
			aident = "MISMATCH"
		}
		s += fmt.Sprintf("\n  alewife %s %dp: %.2fs -> %.2fs -> %.2fs (%.2fx overall, %.2fx from epochs, results %s)",
			a.Benchmark, a.Nodes, a.Baseline.WallSeconds, a.Compiled.WallSeconds,
			a.Optimized.WallSeconds, a.Speedup, a.EpochSpeedup, aident)
		if e := a.Epoch; e != nil {
			s += fmt.Sprintf("\n  alewife epochs: %d windows, %.1f%% of cycles inside, %d fallbacks",
				e.Windows, e.EpochCyclesPct, e.Fallbacks)
		}
		s += fmt.Sprintf("\n  alewife gc: %.0f -> %.0f allocs/Mcycle, %.0f -> %.0f KB/Mcycle",
			a.Baseline.AllocsPerMcycle, a.Optimized.AllocsPerMcycle,
			a.Baseline.BytesPerMcycle/1024, a.Optimized.BytesPerMcycle/1024)
	}
	for _, row := range r.CheckpointOverhead {
		cident := "IDENTICAL"
		if !row.Identical {
			cident = "MISMATCH"
		}
		s += fmt.Sprintf("\n  checkpoint %s %4dp @%d: %5.1f MB image (%.1f KB/node), snapshot %6.2f ms, restore %6.2f ms, results %s",
			row.Benchmark, row.Nodes, row.Cycle, float64(row.ImageBytes)/(1<<20),
			float64(row.ImageBytesPerNode)/(1<<10), row.SnapshotMS, row.RestoreMS, cident)
	}
	if o := r.WorkerOccupancy; o != nil {
		s += fmt.Sprintf("\n  harness: %d workers, %.0f%% busy over %.2fs",
			o.Workers, 100*o.BusyFraction(), float64(o.WallNS)/1e9)
	}
	return s
}
