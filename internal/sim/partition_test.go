package sim_test

import (
	"fmt"
	"testing"

	"april/internal/rts"
	"april/internal/sim"
)

// TestShardPartitionAccessor verifies Machine.Partition: contiguous,
// non-empty blocks covering [0, Nodes) exactly once, for 1-D/2-D/3-D
// geometry fits including non-power-of-two node counts, and for shard
// counts that do not divide the node count (or exceed it).
func TestShardPartitionAccessor(t *testing.T) {
	// Node counts chosen to exercise the geometry fitter's shapes:
	// 5 and 60 fall back to a 1-D ring, 27 and 64 fit 3-D cubes, the
	// rest land in between; the partition must be shape-independent.
	for _, nodes := range []int{1, 3, 5, 8, 27, 60, 64, 100, 256} {
		m, err := sim.New(sim.Config{
			Nodes:   nodes,
			Profile: rts.APRIL,
			Alewife: &sim.AlewifeConfig{},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2, 3, 4, 7, 8, 64, 1000} {
			t.Run(fmt.Sprintf("%dp/%dshards", nodes, shards), func(t *testing.T) {
				p := m.Partition(shards)
				if err := p.Validate(); err != nil {
					t.Fatal(err)
				}
				if p.Nodes() != nodes {
					t.Fatalf("partition covers %d nodes, machine has %d", p.Nodes(), nodes)
				}
				wantShards := min(max(shards, 1), nodes)
				if p.Shards() != wantShards {
					t.Fatalf("partition has %d shards, want %d", p.Shards(), wantShards)
				}
				// Exact cover by contiguous blocks, in order, each node
				// owned by the shard Of reports.
				next := 0
				for s := 0; s < p.Shards(); s++ {
					lo, hi := p.Block(s)
					if lo != next {
						t.Fatalf("shard %d starts at %d, want %d", s, lo, next)
					}
					if hi <= lo {
						t.Fatalf("shard %d is empty [%d,%d)", s, lo, hi)
					}
					for n := lo; n < hi; n++ {
						if p.Of(n) != s {
							t.Fatalf("Of(%d) = %d, want %d", n, p.Of(n), s)
						}
					}
					next = hi
				}
				if next != nodes {
					t.Fatalf("blocks cover [0,%d), want [0,%d)", next, nodes)
				}
			})
		}
	}
}
