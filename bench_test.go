// Benchmark harness: one benchmark per reproduced table/figure (see
// DESIGN.md's experiment index). Each benchmark runs the deterministic
// simulation and reports simulated-machine metrics (cycles, normalized
// overhead, utilization) alongside Go wall time. Workloads use the
// test-scale sizes so `go test -bench=.` completes quickly; run
// cmd/april-bench and cmd/april-model for the paper-scale numbers.
package april_test

import (
	"fmt"
	"math/rand"
	"testing"

	"april"
	"april/internal/bench"
	"april/internal/network"
)

// reportSimThroughput adds host-side simulator speed to a simulation
// benchmark: simulated cycles (and, when known, retired instructions)
// per wall-clock second over the whole measurement loop, so
// `go test -bench` output is self-describing about how fast the
// simulator itself runs.
func reportSimThroughput(b *testing.B, perIterCycles, perIterInstructions uint64) {
	s := b.Elapsed().Seconds()
	if s <= 0 {
		return
	}
	b.ReportMetric(float64(perIterCycles)*float64(b.N)/s, "sim-cycles/sec")
	if perIterInstructions > 0 {
		b.ReportMetric(float64(perIterInstructions)*float64(b.N)/s/1e6, "sim-MIPS")
	}
}

// --- E2: Table 3 ---

func benchTable3(b *testing.B, program string, machine april.MachineType, lazy bool, procs int) {
	src := april.BenchmarkSource(program, april.TestSizes)
	seq, err := april.Run(src, april.Options{Machine: machine, Sequential: true})
	if err != nil {
		b.Fatal(err)
	}
	var cycles, instructions uint64
	for i := 0; i < b.N; i++ {
		res, err := april.Run(src, april.Options{
			Machine:     machine,
			LazyFutures: lazy,
			Processors:  procs,
		})
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
		instructions = res.Instructions
	}
	b.ReportMetric(float64(cycles), "sim-cycles")
	b.ReportMetric(float64(cycles)/float64(seq.Cycles), "vs-T-seq")
	reportSimThroughput(b, cycles, instructions)
}

func BenchmarkTable3(b *testing.B) {
	systems := []struct {
		name    string
		machine april.MachineType
		lazy    bool
		procs   []int
	}{
		{"Encore", april.Encore, false, []int{1}},
		{"APRIL", april.APRIL, false, []int{1, 4}},
		{"AprLazy", april.APRIL, true, []int{1, 4}},
	}
	for _, prog := range []string{"fib", "factor", "queens", "speech"} {
		for _, sys := range systems {
			for _, p := range sys.procs {
				b.Run(fmt.Sprintf("%s/%s/p%d", prog, sys.name, p), func(b *testing.B) {
					benchTable3(b, prog, sys.machine, sys.lazy, p)
				})
			}
		}
	}
}

// --- E3/E4: Figure 5 and the headline utilization ---

func BenchmarkFigure5(b *testing.B) {
	params := april.DefaultModelParams()
	var u3 float64
	for i := 0; i < b.N; i++ {
		pts := april.Figure5(params, 8)
		u3 = pts[3].UsefulWork
	}
	b.ReportMetric(u3, "U(3)")
	b.ReportMetric(params.BaseLatency(), "base-latency")
}

// --- E5: context switch cost ablation (Section 6.1) ---

func BenchmarkSwitchCostSweep(b *testing.B) {
	params := april.DefaultModelParams()
	costs := []float64{1, 4, 10, 16, 64}
	var curves map[float64][]april.ModelPoint
	for i := 0; i < b.N; i++ {
		curves = april.SweepSwitchCost(params, costs, 8)
	}
	b.ReportMetric(curves[4][3].Utilization, "U(4)@C=4")
	b.ReportMetric(curves[10][3].Utilization, "U(4)@C=10")
	b.ReportMetric(curves[64][3].Utilization, "U(4)@C=64")
}

// BenchmarkContextSwitchSweep measures the same ablation by
// simulation: fib on the SPARC profile (C=11) versus the custom
// profile (C=4).
func BenchmarkContextSwitchSweep(b *testing.B) {
	src := april.BenchmarkSource("fib", april.TestSizes)
	for _, mt := range []april.MachineType{april.APRIL, april.APRILCustom} {
		b.Run(string(mt), func(b *testing.B) {
			var cycles, instructions uint64
			for i := 0; i < b.N; i++ {
				res, err := april.Run(src, april.Options{
					Machine: mt, LazyFutures: true, Processors: 4,
				})
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
				instructions = res.Instructions
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
			reportSimThroughput(b, cycles, instructions)
		})
	}
}

// --- E6: model validation on the full memory system ---

func BenchmarkModelValidation(b *testing.B) {
	cfg := april.DefaultValidationConfig()
	cfg.Cycles = 60_000
	cfg.WarmupCycles = 20_000
	var pts []april.ValidationPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = april.ValidateModel(cfg, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	var ps, ms []float64
	for _, pt := range pts {
		ps = append(ps, float64(pt.ThreadsPerNode))
		ms = append(ms, pt.MissPerCycle)
	}
	_, slope, r2 := april.LinearFit(ps, ms)
	b.ReportMetric(slope, "m-slope")
	b.ReportMetric(r2, "m-linearity-r2")
	b.ReportMetric(pts[len(pts)-1].RemoteLatency, "T(p)")
}

// --- E7: future-detection overhead (Mul-T seq vs T seq) ---

func BenchmarkFutureDetection(b *testing.B) {
	src := april.BenchmarkSource("fib", april.TestSizes)
	for _, mt := range []april.MachineType{april.APRIL, april.Encore} {
		b.Run(string(mt), func(b *testing.B) {
			tseq, err := april.Run(src, april.Options{Machine: april.APRIL, Sequential: true})
			if err != nil {
				b.Fatal(err)
			}
			var mul uint64
			for i := 0; i < b.N; i++ {
				// Sequential code with the machine's future detection:
				// free tag traps on APRIL, compiled-in checks on the
				// Encore.
				res, err := april.Run(src, april.Options{Machine: mt, Sequential: true})
				if err != nil {
					b.Fatal(err)
				}
				mul = res.Cycles
			}
			b.ReportMetric(float64(mul)/float64(tseq.Cycles), "detection-overhead")
		})
	}
}

// --- E8: network latency versus load ---

func BenchmarkNetworkLatency(b *testing.B) {
	for _, load := range []float64{0.01, 0.08} {
		b.Run(fmt.Sprintf("load=%.2f", load), func(b *testing.B) {
			var avg float64
			for i := 0; i < b.N; i++ {
				tor, err := network.NewTorus(network.Geometry{Dim: 3, Radix: 3})
				if err != nil {
					b.Fatal(err)
				}
				rng := rand.New(rand.NewSource(1))
				n := tor.Nodes()
				var buf []*network.Message
				var pend []int
				drain := func() {
					pend = tor.PendingNodes(pend[:0])
					for _, node := range pend {
						buf = tor.Deliveries(node, buf[:0])
						tor.Recycle(buf)
					}
				}
				for c := 0; c < 5000; c++ {
					for node := 0; node < n; node++ {
						if rng.Float64() < load {
							m := tor.Alloc()
							m.Src, m.Dst, m.Size = node, rng.Intn(n), 4
							tor.Send(m)
						}
					}
					tor.Tick()
					drain()
				}
				for j := 0; j < 100000 && tor.InFlight() > 0; j++ {
					tor.Tick()
					drain()
				}
				avg = tor.Stats().AvgLatency()
			}
			b.ReportMetric(avg, "avg-packet-latency")
		})
	}
}

// --- ALEWIFE end-to-end: fib on the full memory system ---

func BenchmarkAlewifeFib(b *testing.B) {
	src := april.BenchmarkSource("fib", april.TestSizes)
	var cycles, instructions uint64
	var misses uint64
	for i := 0; i < b.N; i++ {
		res, err := april.Run(src, april.Options{
			Processors: 4,
			Alewife:    &april.AlewifeOptions{},
		})
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
		instructions = res.Instructions
		misses = res.CacheMissTraps
	}
	b.ReportMetric(float64(cycles), "sim-cycles")
	b.ReportMetric(float64(misses), "remote-miss-traps")
	reportSimThroughput(b, cycles, instructions)
}

// --- E9: utilization vs hardware task frames, end to end ---

func BenchmarkFramesSweep(b *testing.B) {
	cfg := bench.FramesSweepConfig{Nodes: 4, Frames: []int{1, 2, 4}, FibN: 12}
	var pts []bench.FramesPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = bench.FramesSweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].Utilization, "U(1-frame)")
	b.ReportMetric(pts[len(pts)-1].Utilization, "U(4-frames)")
	var sweepCycles uint64
	for _, pt := range pts {
		sweepCycles += pt.Cycles * uint64(cfg.Nodes)
	}
	reportSimThroughput(b, sweepCycles, 0)
}
