package april

// The fault matrix is the robustness subsystem's headline experiment:
// benchmarks × memory systems × machine sizes × fault seeds, every run
// with the invariant checkers armed. The pass criterion is the paper's
// determinism contract under perturbation — seeded timing faults may
// shift cycle counts, but every cell must compute the bit-identical
// answer, with zero invariant violations and no wedges.

import (
	"fmt"
	"io"
	"strings"

	"april/internal/harness"
)

// FaultMatrixConfig drives FaultMatrix.
type FaultMatrixConfig struct {
	// Benchmarks to sweep (default fib and queens, the two Table 3
	// kernels with the most divergent sharing patterns).
	Benchmarks []string
	// Procs are the machine sizes (default 1, 4, 8, 64).
	Procs []int
	// Seeds is how many fault plans each ALEWIFE cell runs beyond the
	// fault-free baseline (default 8; seeds are 1..Seeds). Perfect-
	// memory cells have no network to perturb, so each seed reruns the
	// cell fault-free and must reproduce the baseline bit-identically,
	// cycles included.
	Seeds int
	// Sizes selects workload scale (zero value = TestSizes).
	Sizes Table3Sizes
	// Workers fans independent cells across host cores (0 = all cores).
	Workers int
	// Verbose, when non-nil, receives one line per completed run.
	Verbose io.Writer
}

// DefaultFaultMatrixConfig is the standard matrix: fib/queens ×
// perfect/alewife × {1,4,8,64}p × 8 seeds.
func DefaultFaultMatrixConfig() FaultMatrixConfig {
	return FaultMatrixConfig{
		Benchmarks: []string{"fib", "queens"},
		Procs:      []int{1, 4, 8, 64},
		Seeds:      8,
		Sizes:      TestSizes,
	}
}

// FaultMatrixCell is one completed run of the matrix.
type FaultMatrixCell struct {
	Benchmark string
	Mode      string // "perfect" or "alewife"
	Procs     int
	Seed      uint64 // 0 = fault-free baseline
	Answer    string
	Cycles    uint64
	Failure   string // empty on success
}

// FaultMatrixResult is the full matrix outcome.
type FaultMatrixResult struct {
	Cells    []FaultMatrixCell
	Failures int
}

func (cfg *FaultMatrixConfig) fill() {
	def := DefaultFaultMatrixConfig()
	if len(cfg.Benchmarks) == 0 {
		cfg.Benchmarks = def.Benchmarks
	}
	if len(cfg.Procs) == 0 {
		cfg.Procs = def.Procs
	}
	if cfg.Seeds <= 0 {
		cfg.Seeds = def.Seeds
	}
	if cfg.Sizes == (Table3Sizes{}) {
		cfg.Sizes = def.Sizes
	}
}

// memoryFor sizes a cell's simulated memory at 8 MiB a node, within
// the 256 MiB default and the 4095 MiB a machine addresses: paper-size
// fib on 64 ALEWIFE nodes runs out of stack in 256 MiB.
func memoryFor(procs int) uint32 {
	return uint32(min(max(256<<20, 8<<20*uint64(procs)), 4095<<20))
}

// FaultMatrix runs the matrix. The returned error covers harness-level
// problems only; per-cell failures (wrong answer, invariant violation,
// wedge) land in the cells' Failure fields and the Failures count.
func FaultMatrix(cfg FaultMatrixConfig) (FaultMatrixResult, error) {
	cfg.fill()
	type cellSpec struct {
		bench string
		mode  string
		procs int
		seed  uint64
	}
	var specs []cellSpec
	for _, b := range cfg.Benchmarks {
		for _, mode := range []string{"perfect", "alewife"} {
			for _, p := range cfg.Procs {
				for seed := uint64(0); seed <= uint64(cfg.Seeds); seed++ {
					specs = append(specs, cellSpec{b, mode, p, seed})
				}
			}
		}
	}

	cells, err := harness.Map(cfg.Workers, len(specs), func(i int) (FaultMatrixCell, error) {
		s := specs[i]
		cell := FaultMatrixCell{Benchmark: s.bench, Mode: s.mode, Procs: s.procs, Seed: s.seed}
		o := Options{Processors: s.procs, MemoryBytes: memoryFor(s.procs), Check: true}
		if s.mode == "alewife" {
			o.Alewife = &AlewifeOptions{}
			if s.seed > 0 {
				fc := DefaultFaultOptions(s.seed)
				o.Faults = &fc
			}
		}
		res, err := Run(cfg.Sizes.Source(s.bench), o)
		if err != nil {
			cell.Failure = err.Error()
			return cell, nil
		}
		cell.Answer = res.Value
		cell.Cycles = res.Cycles
		return cell, nil
	})
	if err != nil {
		return FaultMatrixResult{}, err
	}

	// Judge each (benchmark, mode, procs) group against its seed-0
	// baseline: answers must match everywhere; in perfect mode (no
	// perturbation possible) cycles must match too.
	baseline := make(map[cellSpec]FaultMatrixCell)
	for i, c := range cells {
		if c.Seed == 0 {
			baseline[cellSpec{c.Benchmark, c.Mode, c.Procs, 0}] = cells[i]
		}
	}
	out := FaultMatrixResult{Cells: cells}
	for i := range out.Cells {
		c := &out.Cells[i]
		if c.Failure == "" {
			base := baseline[cellSpec{c.Benchmark, c.Mode, c.Procs, 0}]
			switch {
			case base.Failure != "":
				// Baseline itself failed; the seed runs can't be judged.
			case c.Answer != base.Answer:
				c.Failure = fmt.Sprintf("answer %q, baseline %q", c.Answer, base.Answer)
			case c.Mode == "perfect" && c.Cycles != base.Cycles:
				c.Failure = fmt.Sprintf("cycles %d, baseline %d (perfect mode must be exact)", c.Cycles, base.Cycles)
			}
		}
		if c.Failure != "" {
			out.Failures++
		}
		if cfg.Verbose != nil {
			status := "ok"
			if c.Failure != "" {
				status = "FAIL: " + c.Failure
			}
			fmt.Fprintf(cfg.Verbose, "%-6s %-7s %3dp seed %-2d  %12d cycles  %s\n",
				c.Benchmark, c.Mode, c.Procs, c.Seed, c.Cycles, status)
		}
	}
	return out, nil
}

// FormatFaultMatrix renders the matrix grouped by cell, one line per
// (benchmark, mode, procs) with the cycle spread across seeds.
func FormatFaultMatrix(r FaultMatrixResult) string {
	type key struct {
		bench, mode string
		procs       int
	}
	groups := map[key][]FaultMatrixCell{}
	var order []key
	for _, c := range r.Cells {
		k := key{c.Benchmark, c.Mode, c.Procs}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], c)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-8s %5s %6s %14s %14s  %s\n",
		"bench", "mode", "procs", "runs", "min-cycles", "max-cycles", "answer")
	for _, k := range order {
		cs := groups[k]
		minC, maxC := ^uint64(0), uint64(0)
		answer, status := "", "ok"
		for _, c := range cs {
			if c.Failure != "" {
				status = "FAIL"
				continue
			}
			if c.Cycles < minC {
				minC = c.Cycles
			}
			if c.Cycles > maxC {
				maxC = c.Cycles
			}
			answer = c.Answer
		}
		if minC > maxC {
			minC, maxC = 0, 0
		}
		fmt.Fprintf(&b, "%-8s %-8s %5d %6d %14d %14d  %-10s %s\n",
			k.bench, k.mode, k.procs, len(cs), minC, maxC, answer, status)
	}
	fmt.Fprintf(&b, "\n%d cells, %d failures\n", len(r.Cells), r.Failures)
	return b.String()
}
