package sim_test

// The image round trip's cost rows and its allocation pin. The donors
// are the benchmark's ckpt64 shape: queens 8 on ALEWIFE nodes, stopped
// at cycle 20000, at 16, 64 and 256 nodes.

import (
	"fmt"
	"testing"

	"april/internal/bench"
	"april/internal/sim"
)

// queensDonor builds queens 8 on nodes ALEWIFE nodes and runs it to
// cycle 20000 (at 64 nodes, the benchmark's ckpt64 donor).
func queensDonor(tb testing.TB, nodes int) *sim.Machine {
	tb.Helper()
	return runTo(tb, build(tb, bench.QueensSource(8), snapConfig{nodes: nodes, aw: true}.simConfig()), 20000)
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

// TestRestoreAllocs: decoding allocates the fresh machine and the
// decoded records, and no per-record scratch on top: 1759 allocations
// for this donor before the image's records were decoded by one
// declaration-order codec, which may not add more than 5% to that.
func TestRestoreAllocs(t *testing.T) {
	img, err := queensDonor(t, 16).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// The least of three measurements: allocations from anything else
	// running in the process only ever add to a count.
	allocs := 1e9
	for range 3 {
		allocs = min(allocs, testing.AllocsPerRun(3, func() {
			if _, err := sim.Restore(img, sim.RestoreOverrides{}); err != nil {
				t.Fatal(err)
			}
		}))
	}
	t.Logf("16-node Restore: %.0f allocations", allocs)
	if limit := 1759 * 1.05; allocs > limit {
		t.Errorf("Restore made %.0f allocations, want at most %.0f", allocs, limit)
	}
}

// donorSizes are the machine sizes the round-trip benchmarks cover:
// 64 is the ckpt64 donor, 16 and 256 show how the image grows with the
// machine.
var donorSizes = []int{16, 64, 256}

// BenchmarkSnapshot encodes and seals each donor's image.
func BenchmarkSnapshot(b *testing.B) {
	for _, nodes := range donorSizes {
		b.Run(fmt.Sprintf("%dp", nodes), func(b *testing.B) {
			m := queensDonor(b, nodes)
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
		})
	}
}

// BenchmarkRestore opens and decodes each donor's image into a new
// machine.
func BenchmarkRestore(b *testing.B) {
	for _, nodes := range donorSizes {
		b.Run(fmt.Sprintf("%dp", nodes), func(b *testing.B) {
			img, err := queensDonor(b, nodes).Snapshot()
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
		})
	}
}
