package sim_test

// The image round trip's cost rows and its allocation pin. The donors
// are the benchmark's ckpt64 shape: queens 8 on ALEWIFE nodes, stopped
// at cycle 20000.

import (
	"testing"

	"april/internal/bench"
	"april/internal/mult"
	"april/internal/sim"
)

// queensDonor builds queens 8 on nodes ALEWIFE nodes and runs it to
// cycle 20000 (at 64 nodes, the benchmark's ckpt64 donor).
func queensDonor(tb testing.TB, nodes int) *sim.Machine {
	tb.Helper()
	m, err := sim.New(snapConfig{nodes: nodes, aw: true}.simConfig())
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := mult.Compile(bench.QueensSource(8), mult.Mode{HardwareFutures: true}, m.StaticHeap())
	if err != nil {
		tb.Fatal(err)
	}
	if err := m.Load(prog); err != nil {
		tb.Fatal(err)
	}
	if done, err := m.RunWindow(20000); err != nil || done {
		tb.Fatalf("RunWindow(20000) = %v, %v", done, err)
	}
	return m
}

// TestSnapshotAllocsPerNode: encoding allocates the image and a few
// lists per node and per controller (ready queues, retry trackers, the
// sorted key lists), and nothing per directory entry, cache line, page
// or blocked thread: 100 for this donor, where allocating per directory
// entry and per waiter list made it 574.
func TestSnapshotAllocsPerNode(t *testing.T) {
	const nodes = 16
	m := queensDonor(t, nodes)
	if _, err := m.Snapshot(); err != nil { // warm
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := m.Snapshot(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d-node Snapshot: %.0f allocations", nodes, allocs)
	if limit := 8.0 * nodes; allocs > limit {
		t.Errorf("Snapshot made %.0f allocations on %d nodes, want at most %.0f", allocs, nodes, limit)
	}
}

// BenchmarkSnapshot encodes and seals the 64-node donor's image.
func BenchmarkSnapshot(b *testing.B) {
	m := queensDonor(b, 64)
	img, err := m.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(img)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRestore opens and decodes that image into a new machine.
func BenchmarkRestore(b *testing.B) {
	img, err := queensDonor(b, 64).Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(img)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Restore(img, sim.RestoreOverrides{}); err != nil {
			b.Fatal(err)
		}
	}
}
