package bench

import (
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"april/internal/harness"
	"april/internal/mult"
	"april/internal/proc"
	"april/internal/rts"
	"april/internal/sim"
)

// PerfReport is the simulator-throughput measurement that
// cmd/april-bench -perf serializes to BENCH_simperf.json: the full
// Table 3 grid run once under each execution tier on the same host and
// worker count, with a bit-identity cross-check across the two sets of
// rows.
type PerfReport struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	NumCPU      int    `json:"num_cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Sizes       string `json:"sizes"`
	Workers     int    `json:"workers"`

	// One grid per tier, all covering the identical runs.
	TierPerfs

	// Speedup is reference wall time / compiled wall time.
	Speedup float64 `json:"speedup"`

	// RowsIdentical asserts the two grids produced byte-identical
	// simulated results (same cycle counts, same program outputs).
	RowsIdentical bool `json:"rows_identical"`

	// Alewife is the same comparison on the full memory system (caches
	// + directory + torus) at a machine size the Table 3 grid never
	// reaches.
	Alewife *AlewifeRow `json:"alewife,omitempty"`

	// CheckpointOverhead measures the snapshot/restore path across
	// machine sizes: serialize latency, image size, restore latency, and
	// a bit-identity cross-check of the restored run against the donor.
	CheckpointOverhead []CheckpointRow `json:"checkpoint_overhead,omitempty"`

	// WorkerOccupancy reports how the compiled grid's harness workers
	// spent the sweep: runs and busy time per worker against wall time.
	WorkerOccupancy *harness.Occupancy `json:"worker_occupancy,omitempty"`
}

// AlewifeRow is one ALEWIFE-mode throughput measurement: a single
// benchmark on the full memory system under each execution tier, with
// a bit-identity cross-check across the two runs.
type AlewifeRow struct {
	Benchmark string `json:"benchmark"`
	Nodes     int    `json:"nodes"`
	Cycles    uint64 `json:"cycles"`
	Result    string `json:"result"`
	TierPerfs
	// Speedup as in PerfReport.
	Speedup float64 `json:"speedup"`

	// Identical asserts the two runs agreed on cycles, result, and
	// every node's full statistics.
	Identical bool `json:"identical"`
	// NumCPU is the host the wall times were taken on (like the
	// checkpoint rows, this one can be regenerated apart from the rest).
	NumCPU int `json:"num_cpu"`
}

// TierPerfs holds one throughput measurement per execution tier.
type TierPerfs struct {
	Reference proc.Perf `json:"reference"`
	Compiled  proc.Perf `json:"compiled"`
}

func (t *TierPerfs) of(tier sim.Tier) *proc.Perf {
	if tier == sim.TierReference {
		return &t.Reference
	}
	return &t.Compiled
}

// speedup returns reference wall time over compiled.
func (t *TierPerfs) speedup() float64 {
	if t.Compiled.WallSeconds <= 0 {
		return 0
	}
	return t.Reference.WallSeconds / t.Compiled.WallSeconds
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

// alewifeOnce runs one benchmark on a fresh full-memory-system machine.
func alewifeOnce(src string, nodes int, tier sim.Tier) (runOut, error) {
	// The GC bracket matches the wall-clock bracket: it covers machine
	// construction too.
	gcBefore := proc.TakeGCSnapshot()
	start := time.Now()
	m, err := sim.New(sim.Config{
		Nodes:   nodes,
		Profile: rts.APRIL,
		Alewife: &sim.AlewifeConfig{},
		Tier:    tier,
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
	return out, nil
}

// AlewifePerf measures one AlewifeRow: the named benchmark on an
// ALEWIFE machine of the given size under each tier.
func AlewifePerf(benchName string, sizes Sizes, nodes int) (AlewifeRow, error) {
	src := sizes.Source(benchName)
	row := AlewifeRow{Benchmark: benchName, Nodes: nodes, Identical: true, NumCPU: runtime.NumCPU()}
	var first runOut
	for i, tier := range sim.Tiers {
		out, err := alewifeOnce(src, nodes, tier)
		if err != nil {
			return AlewifeRow{}, fmt.Errorf("alewife %v run: %w", tier, err)
		}
		*row.of(tier) = out.perf
		if i == 0 {
			first = out
			continue
		}
		row.Identical = row.Identical && out.cycles == first.cycles && out.result == first.result &&
			reflect.DeepEqual(out.stats.PerNode, first.stats.PerNode)
	}
	row.Cycles, row.Result = first.cycles, first.result
	row.Speedup = row.speedup()
	return row, nil
}

// Table3Perf measures PerfReport for the given grid configuration
// (cfg.Tier, cfg.Perf and cfg.Occupancy are overridden per grid).
func Table3Perf(cfg Table3Config, sizesName string) (PerfReport, error) {
	rep := PerfReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Sizes:       sizesName,
		Workers:     harness.Workers(cfg.Workers),
	}
	var first []Row
	rep.RowsIdentical = true
	for i, tier := range sim.Tiers {
		c := cfg
		c.Tier, c.Perf, c.Occupancy = tier, rep.of(tier), nil
		if tier == sim.TierCompiled {
			rep.WorkerOccupancy = &harness.Occupancy{}
			c.Occupancy = rep.WorkerOccupancy
		}
		// Collect before each timed grid so no grid inherits the
		// previous one's heap target: the pacer otherwise flatters
		// whichever side runs next.
		runtime.GC()
		gcBefore := proc.TakeGCSnapshot()
		rows, err := Table3(c)
		if err != nil {
			return PerfReport{}, fmt.Errorf("%v grid: %w", tier, err)
		}
		c.Perf.SetGC(gcBefore, proc.TakeGCSnapshot())
		if i == 0 {
			first = rows
		} else {
			rep.RowsIdentical = rep.RowsIdentical && reflect.DeepEqual(rows, first)
		}
	}
	rep.Speedup = rep.speedup()

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
	s := fmt.Sprintf("reference %.2fs -> compiled %.2fs (%.2fx, %d workers, results %s)",
		r.Reference.WallSeconds, r.Compiled.WallSeconds,
		r.Speedup, r.Workers, identical(r.RowsIdentical))
	s += fmt.Sprintf("\n  gc: %.0f -> %.0f allocs/Mcycle, %.0f -> %.0f KB/Mcycle, %d -> %d GCs",
		r.Reference.AllocsPerMcycle, r.Compiled.AllocsPerMcycle,
		r.Reference.BytesPerMcycle/1024, r.Compiled.BytesPerMcycle/1024,
		r.Reference.HostNumGC, r.Compiled.HostNumGC)
	if a := r.Alewife; a != nil {
		s += fmt.Sprintf("\n  alewife %s %dp: %.2fs -> %.2fs (%.2fx, results %s)",
			a.Benchmark, a.Nodes, a.Reference.WallSeconds,
			a.Compiled.WallSeconds, a.Speedup, identical(a.Identical))
		s += fmt.Sprintf("\n  alewife gc: %.0f -> %.0f allocs/Mcycle, %.0f -> %.0f KB/Mcycle",
			a.Reference.AllocsPerMcycle, a.Compiled.AllocsPerMcycle,
			a.Reference.BytesPerMcycle/1024, a.Compiled.BytesPerMcycle/1024)
	}
	for _, row := range r.CheckpointOverhead {
		s += fmt.Sprintf("\n  checkpoint %s %4dp @%d: %5.1f MB image (%.1f KB/node), snapshot %6.2f ms, restore %6.2f ms, results %s",
			row.Benchmark, row.Nodes, row.Cycle, float64(row.ImageBytes)/(1<<20),
			float64(row.ImageBytesPerNode)/(1<<10), row.SnapshotMS, row.RestoreMS, identical(row.Identical))
	}
	if o := r.WorkerOccupancy; o != nil {
		s += fmt.Sprintf("\n  harness: %d workers, %.0f%% busy over %.2fs",
			o.Workers, 100*o.BusyFraction(), float64(o.WallNS)/1e9)
	}
	return s
}

func identical(ok bool) string {
	if ok {
		return "IDENTICAL"
	}
	return "MISMATCH"
}
