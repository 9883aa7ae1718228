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

// alewifeRow measures one AlewifeRow: the named benchmark on an
// ALEWIFE machine of the given size under each tier, each run through
// runOnce as the grid's runs are.
func alewifeRow(benchName string, sizes Sizes, nodes int) (AlewifeRow, error) {
	src := sizes.Source(benchName)
	row := AlewifeRow{Benchmark: benchName, Nodes: nodes, Identical: true}
	var first RunStats
	for i, tier := range sim.Tiers {
		cfg := sim.Config{Nodes: nodes, Profile: rts.APRIL, Alewife: &sim.AlewifeConfig{}, Tier: tier}
		out, err := runOnce(cfg, src, mult.Mode{HardwareFutures: true})
		if err != nil {
			return AlewifeRow{}, fmt.Errorf("alewife %v run: %w", tier, err)
		}
		*row.of(tier) = out.Perf
		if i == 0 {
			first = out
			continue
		}
		row.Identical = row.Identical && out.Cycles == first.Cycles && out.Result == first.Result &&
			reflect.DeepEqual(out.PerNode, first.PerNode)
	}
	row.Cycles, row.Result = first.Cycles, first.Result
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
		rows, err := Table3(c)
		if err != nil {
			return PerfReport{}, fmt.Errorf("%v grid: %w", tier, err)
		}
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
	alw, err := alewifeRow("queens", cfg.Sizes, 64)
	if err != nil {
		return PerfReport{}, err
	}
	rep.Alewife = &alw
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
	if a := r.Alewife; a != nil {
		s += fmt.Sprintf("\n  alewife %s %dp: %.2fs -> %.2fs (%.2fx, results %s)",
			a.Benchmark, a.Nodes, a.Reference.WallSeconds,
			a.Compiled.WallSeconds, a.Speedup, identical(a.Identical))
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
