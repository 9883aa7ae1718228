// Command april-bench regenerates Table 3 of the paper: normalized
// execution times of fib, factor, queens and speech on the Encore
// Multimax baseline and on APRIL with normal and lazy task creation,
// at 1-16 processors. It runs the grid and writes the grid's
// artifacts. To trace, time-line or serve one program, run its source
// with cmd/april instead (examples/progs holds fib and queens).
//
// The grid's independent runs are fanned across host cores (-workers).
// -tier selects the execution path; -perf runs the whole grid once
// under each tier, plus a 64-node ALEWIFE run under each tier, and
// writes the throughput report to BENCH_simperf.json. -stats-json
// writes every grid run's full statistics.
//
// -model-check cross-validates the Section 8 analytical model: it runs
// fib/queens on the full ALEWIFE memory system across the Figure 5
// processor range, measures the model's inputs (resident threads, miss
// rate, remote latency) from each run, and reports measured vs.
// predicted utilization with per-config errors. -frames runs the
// task-frame ablation (E9).
//
// -fault-matrix runs the robustness grid instead: fib/queens on
// perfect and ALEWIFE memory at several machine sizes, each ALEWIFE
// cell repeated under eight seeded fault plans with the invariant
// checkers armed; any answer drift, invariant violation, or wedge
// fails the run.
//
// -cpuprofile and -memprofile write pprof profiles of whatever mode
// ran (see README.md, "Profiling the simulator").
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"april"
	"april/internal/bench"
	"april/internal/proc"
)

// perfOut is where -perf writes its report.
const perfOut = "BENCH_simperf.json"

// main delegates to run so deferred profile writers execute before the
// process exits (os.Exit skips defers).
func main() {
	os.Exit(run())
}

func run() int {
	var (
		sizes   = flag.String("sizes", "paper", "workload scale: paper | test")
		verbose = flag.Bool("v", false, "log each measurement as it completes")
		frames  = flag.Bool("frames", false, "run the task-frame ablation (E9) instead of Table 3")
		workers = flag.Int("workers", 0, "parallel host workers (0 = one per core)")
		perf    = flag.Bool("perf", false, "measure simulator throughput under each tier (the grid plus a 64-node ALEWIFE run) and write "+perfOut)

		statsJSON = flag.String("stats-json", "", "write every grid run's full statistics (totals, per-node, throughput) as JSON to this path")

		modelCheck = flag.Bool("model-check", false, "run the measured-vs-model utilization grid (fib/queens on the full ALEWIFE memory system across the Figure 5 processor range) and compare measured U(p) against the Section 8 analytical model; writes the report to -stats-json (default BENCH_modelcheck.json)")

		faultMatrix = flag.Bool("fault-matrix", false, "run the robustness fault matrix (fib/queens × perfect/alewife × machine sizes × 8 seeded fault plans, invariant checkers armed) instead of Table 3; exit 1 on any failing cell")

		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this path")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile (taken at exit) to this path")
	)
	var tier april.Tier
	flag.Var(&tier, "tier", "execution path: compiled | reference (the per-cycle loop and switch interpreter); results are bit-identical")
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "april-bench:", err)
		return 1
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fail(err)
		}
		defer func() {
			runtime.GC() // settle allocations so the heap profile is meaningful
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "april-bench: heap profile:", err)
			}
			f.Close()
		}()
	}

	var benchSizes bench.Sizes
	switch *sizes {
	case "paper":
		benchSizes = bench.PaperSizes
	case "test":
		benchSizes = bench.TestSizes
	default:
		fmt.Fprintf(os.Stderr, "april-bench: unknown -sizes %q\n", *sizes)
		return 2
	}

	if *frames {
		cfg := bench.DefaultFramesSweep()
		cfg.Workers = *workers
		pts, err := bench.FramesSweep(cfg)
		if err != nil {
			return fail(err)
		}
		fmt.Print("E9: utilization vs hardware task frames (fib on the full ALEWIFE memory system)\n\n")
		fmt.Print(bench.FormatFramesSweep(pts))
		return 0
	}

	if *modelCheck {
		mcfg := bench.DefaultModelCheckConfig()
		mcfg.Sizes = benchSizes
		mcfg.Workers = *workers
		if *verbose {
			mcfg.Verbose = os.Stderr
		}
		rep, err := bench.ModelCheck(mcfg)
		if err != nil {
			return fail(err)
		}
		rep.Sizes = *sizes
		out := *statsJSON
		if out == "" {
			out = "BENCH_modelcheck.json"
		}
		if err := os.WriteFile(out, rep.JSON(), 0o644); err != nil {
			return fail(err)
		}
		fmt.Printf("Measured vs. model utilization (-sizes %s; m, T, p measured per run; C = %d cycles):\n\n",
			*sizes, int(rep.Rows[0].SwitchCost))
		fmt.Print(bench.FormatModelCheck(rep))
		fmt.Println("\nwritten to", out)
		return 0
	}

	if *faultMatrix {
		mcfg := april.DefaultFaultMatrixConfig()
		mcfg.Sizes = benchSizes
		mcfg.Workers = *workers
		if *verbose {
			mcfg.Verbose = os.Stderr
		}
		res, err := april.FaultMatrix(mcfg)
		if err != nil {
			return fail(err)
		}
		fmt.Printf("Fault matrix (-sizes %s, %d seeds per ALEWIFE cell, invariant checkers on):\n\n", *sizes, mcfg.Seeds)
		fmt.Print(april.FormatFaultMatrix(res))
		if res.Failures > 0 {
			return fail(fmt.Errorf("%d failing cells", res.Failures))
		}
		return 0
	}

	cfg := bench.DefaultTable3Config()
	cfg.Sizes = benchSizes
	if *verbose {
		cfg.Verbose = os.Stderr
	}
	cfg.Workers = *workers
	cfg.Tier = tier

	if *perf {
		rep, err := bench.Table3Perf(cfg, *sizes)
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(perfOut, rep.JSON(), 0o644); err != nil {
			return fail(err)
		}
		fmt.Printf("Simulator throughput on the full Table 3 grid (-sizes %s):\n  %s\n", *sizes, rep.Summary())
		fmt.Printf("  reference: %s\n  compiled : %s\n", rep.Reference, rep.Compiled)
		fmt.Println("written to", perfOut)
		if !rep.RowsIdentical || (rep.Alewife != nil && !rep.Alewife.Identical) {
			return fail(fmt.Errorf("simulated results differ between tiers"))
		}
		return 0
	}

	var gridPerf proc.Perf
	cfg.Perf = &gridPerf
	var gridStats []bench.RunStats
	if *statsJSON != "" {
		cfg.Stats = &gridStats
	}
	rows, err := bench.Table3(cfg)
	if err != nil {
		return fail(err)
	}
	if *statsJSON != "" {
		b, err := json.MarshalIndent(gridStats, "", "  ")
		if err == nil {
			err = os.WriteFile(*statsJSON, append(b, '\n'), 0o644)
		}
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "run statistics written to %s (%d runs)\n", *statsJSON, len(gridStats))
	}
	fmt.Println("Table 3: Execution time for Mul-T benchmarks, normalized to sequential T")
	fmt.Println("(paper reference: fib 28.9/14.2/1.5 at 1p for Encore/APRIL/Apr-lazy;")
	fmt.Print(" Mul-T seq overhead ~1.4-2.0x on Encore, ~1.0 on APRIL)\n\n")
	fmt.Print(bench.FormatTable(rows, cfg.AprilProcs))
	if *verbose {
		fmt.Fprintf(os.Stderr, "grid throughput: %s\n", gridPerf)
	}
	return 0
}
