package sim_test

// Allocation-regression tests: the simulator's steady state must not
// churn the Go allocator. Message pooling, value-typed payloads, the
// flat directory table, and the recycled scheduler/controller scratch
// buffers together pin the per-cycle allocation rate of a full
// 64-node ALEWIFE run at (near) zero — the residual budget covers only
// thread creation (Thread objects are semantically identified by ID
// and deliberately not pooled) and amortized map/table growth.

import (
	"runtime"
	"testing"

	"april/internal/bench"
	"april/internal/cache"
	"april/internal/mult"
	"april/internal/network"
	"april/internal/rts"
	"april/internal/sim"
)

// loadedQueens64 builds a 64-node ALEWIFE machine loaded with the
// queens benchmark (the longest-running program that fits the default
// arenas at this node count; queens(7) runs ~30k cycles).
func loadedQueens64(t testing.TB) *sim.Machine {
	t.Helper()
	return build(t, bench.QueensSource(7), sim.Config{Nodes: 64, Alewife: &sim.AlewifeConfig{}})
}

func TestAlewifeSteadyStateAllocRate(t *testing.T) {
	m := loadedQueens64(t)
	// Run past the growth phase: demand paging of the working set,
	// message-pool and scratch-buffer sizing, and the task tree's
	// expansion (each new task allocates its Thread object). By 26k
	// cycles every pool and buffer has reached its working size and the
	// per-window allocation count measures exactly zero; the run is
	// deterministic, so this boundary is stable.
	if done, err := m.RunWindow(26_000); err != nil {
		t.Fatal(err)
	} else if done {
		t.Fatal("program finished during warm-up")
	}
	const window = 600
	var werr error
	run := func() {
		if _, err := m.RunWindow(window); err != nil {
			werr = err
		}
	}
	// 6 windows (1 warm-up + 5 measured) x 600 cycles on top of the
	// 26k warm-up ends at cycle 29,600, inside queens(7)'s 30,290-cycle
	// run, so the program never finishes mid-measure.
	before := m.EpochTelemetry()
	allocsPerWindow := testing.AllocsPerRun(5, run)
	if werr != nil {
		t.Fatal(werr)
	}
	perCycle := allocsPerWindow / window
	et := m.EpochTelemetry()
	committed := et.LaneOps - et.LaneUndoneOps - (before.LaneOps - before.LaneUndoneOps)
	t.Logf("steady state: %.1f allocs per %d-cycle window (%.4f allocs/cycle), %d lane ops committed",
		allocsPerWindow, window, perCycle, committed)
	if committed == 0 {
		t.Error("no lane committed an op in the measured windows: the guard would not measure them")
	}
	// The tiny epsilon tolerates a stray runtime-internal allocation;
	// the simulator itself contributes none — the seed's
	// per-message/per-payload/per-map-entry churn was ~100 allocs per
	// 600-cycle window at this machine size.
	if perCycle > 0.01 {
		t.Errorf("steady-state allocation rate %.4f allocs/cycle, want ~0 (<= 0.01)", perCycle)
	}
}

// BenchmarkAlewifeSteadyWindow reports the steady-state cost of one
// simulated cycle at 64 nodes; with -benchmem its allocs/op column is
// the headline number this package pins at zero. The machine is
// rebuilt whenever the program runs out of cycles, outside the timer.
func BenchmarkAlewifeSteadyWindow(b *testing.B) {
	const window = 500
	m := loadedQueens64(b)
	warm := func() {
		if done, err := m.RunWindow(26_000); err != nil {
			b.Fatal(err)
		} else if done {
			b.Fatal("program finished during warm-up")
		}
	}
	warm()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done, err := m.RunWindow(window)
		if err != nil {
			b.Fatal(err)
		}
		if done {
			b.StopTimer()
			m = loadedQueens64(b)
			warm()
			b.StartTimer()
		}
	}
}

// alewifeSetup builds a machine of nodes default ALEWIFE nodes (Table
// 4 caches on a k-ary 3-cube) in memBytes of memory, loaded with queens
// 8. newLoad reports what sim.New and Load allocated between them
// (compilation excluded).
func alewifeSetup(tb testing.TB, nodes int, memBytes uint32) (m *sim.Machine, newLoad uint64) {
	tb.Helper()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	m, err := sim.New(sim.Config{Nodes: nodes, Profile: rts.APRIL, MemoryBytes: memBytes, Alewife: &sim.AlewifeConfig{}})
	if err != nil {
		tb.Fatal(err)
	}
	runtime.ReadMemStats(&ms)
	newLoad = ms.TotalAlloc - before
	prog, err := mult.Compile(bench.QueensSource(8), mult.Mode{HardwareFutures: true}, m.StaticHeap())
	if err != nil {
		tb.Fatal(err)
	}
	runtime.ReadMemStats(&ms)
	before = ms.TotalAlloc
	if err := m.Load(prog); err != nil {
		tb.Fatal(err)
	}
	runtime.ReadMemStats(&ms)
	return m, newLoad + ms.TotalAlloc - before
}

// checkSetup holds what sim.New and Load of m allocated to the
// measured MiB plus 25%, and requires that no node holds a cache chunk
// or a directory table before the first cycle: both are allocated as
// lines and entries arrive.
func checkSetup(t *testing.T, m *sim.Machine, got uint64, measured float64) {
	t.Helper()
	mib := float64(got) / (1 << 20)
	t.Logf("sim.New + Load of %d nodes: %.2f MiB", len(m.Nodes), mib)
	if bound := 1.25 * measured; mib >= bound {
		t.Errorf("sim.New + Load allocated %.2f MiB, want < %.2f MiB", mib, bound)
	}
	for i := range m.Nodes {
		if n := sim.NodeCache(m, i).ResidentChunks(); n != 0 {
			t.Fatalf("node %d: %d cache chunks before the first cycle", i, n)
		}
		if n := sim.NodeDirectory(m, i).Slots(); n != 0 {
			t.Fatalf("node %d: a directory table of %d slots before the first cycle", i, n)
		}
	}
}

// TestNewAlewife1000Alloc guards set-up cost at the scale of the
// benchmark's sparse machine, 1000 nodes in 2 GiB: building and loading
// it allocates 3.19 MiB (the Table 4 tag arrays alone would be
// 62.5 MiB, and 64-slot directory tables another 3.4 MiB); the bound is
// that plus 25%.
func TestNewAlewife1000Alloc(t *testing.T) {
	m, got := alewifeSetup(t, 1000, 1<<31)
	checkSetup(t, m, got, 3.19)
}

// TestNewAlewife8000Alloc is its twin at the paper's 8000 nodes in
// 4095 MiB, where each node's heap chunks are 64 KiB (two of 256 KiB
// per node would not fit the heap arena): 25.03 MiB, bounded at that
// plus 25%.
func TestNewAlewife8000Alloc(t *testing.T) {
	m, got := alewifeSetup(t, 8000, 4095<<20)
	checkSetup(t, m, got, 25.03)
}

// BenchmarkNewAlewife1000 is one set-up of the 1000-node machine (with
// -benchmem, the bytes TestNewAlewife1000Alloc bounds, plus compiling
// queens 8).
func BenchmarkNewAlewife1000(b *testing.B) {
	for i := 0; i < b.N; i++ {
		alewifeSetup(b, 1000, 1<<31)
	}
}

// TestSnapshotRestoreAllocatesOnlyValidChunks: a restored cache holds
// exactly the chunks its image's valid lines land in, however many the
// donor had touched; residency is host memory, not machine state.
func TestSnapshotRestoreAllocatesOnlyValidChunks(t *testing.T) {
	m := loadedQueens64(t)
	if done, err := m.RunWindow(20_000); err != nil || done {
		t.Fatalf("warm-up: done %v, err %v", done, err)
	}
	img, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.Restore(img, sim.RestoreOverrides{})
	if err != nil {
		t.Fatal(err)
	}
	restored := 0
	for i := range r.Nodes {
		c := sim.NodeCache(r, i)
		_, ways := c.Geometry()
		want := map[int]bool{}
		c.ForEach(func(slot int, _ uint32, _ cache.State, _ bool, _ uint64) {
			want[slot/(cache.ChunkSets*ways)] = true
		})
		if got := c.ResidentChunks(); got != len(want) {
			t.Errorf("node %d: %d chunks resident, %d hold valid lines", i, got, len(want))
		}
		if donor := sim.NodeCache(m, i).ResidentChunks(); c.ResidentChunks() > donor {
			t.Errorf("node %d: restored %d chunks, donor had %d", i, c.ResidentChunks(), donor)
		}
		restored += c.ResidentChunks()
	}
	if restored == 0 {
		t.Fatal("no node restored a cache line")
	}
}

// TestPoisonedRecycleIdentity proves no consumer retains a pooled
// message past its recycle point: with poison-on-recycle enabled every
// recycled message is overwritten with garbage, so any handler that
// read a payload after handing the message back would diverge. The
// poisoned run must match the plain run bit for bit, on both run
// loops.
func TestPoisonedRecycleIdentity(t *testing.T) {
	src := bench.QueensSource(5)
	for name, tier := range map[string]sim.Tier{"fast": sim.TierCompiled, "reference": sim.TierReference} {
		t.Run(name, func(t *testing.T) {
			// Poisoning is process-wide: each side runs whole inside
			// its builder, and Diverge compares the finished machines.
			side := func(poison bool) func() *sim.Machine {
				return func() *sim.Machine {
					network.SetPoisonRecycle(poison)
					defer network.SetPoisonRecycle(false)
					m := build(t, src, sim.Config{Nodes: 8, Alewife: &sim.AlewifeConfig{}, Tier: tier})
					finish(t, m)
					return m
				}
			}
			diverge(t, side(true), side(false), whole)
		})
	}
}
