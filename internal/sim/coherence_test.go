package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"april/internal/cache"
	"april/internal/directory"
	"april/internal/isa"
	"april/internal/proc"
	"april/internal/rts"
)

// Protocol stress test: drive random reads and writes from every node
// into a small contended region, then drain the machine and check the
// directory protocol's global invariants.

func newAlewifeMachine(t *testing.T, nodes int) *Machine {
	t.Helper()
	m, err := New(Config{
		Nodes:   nodes,
		Profile: rts.APRIL,
		Alewife: &AlewifeConfig{
			MemLatency: 10,
			Cache:      cache.Config{SizeBytes: 1 << 10, BlockBytes: 16, Assoc: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// quiesce ticks the fabric until no transactions or packets remain.
func quiesce(t *testing.T, m *Machine) {
	t.Helper()
	for i := 0; i < 200000; i++ {
		m.net.tick()
		busy := false
		for _, n := range m.Nodes {
			ctl := n.cache
			if len(ctl.pending) > 0 || len(ctl.homeTx) > 0 || len(ctl.outbox) > 0 {
				busy = true
			}
		}
		if tor, ok := m.net.net.(interface{ InFlight() int }); ok && tor.InFlight() > 0 {
			busy = true
		}
		if !busy {
			return
		}
	}
	t.Fatal("machine did not quiesce")
}

// checkCoherence verifies the quiescent-state invariants:
//  1. at most one cache holds a block Exclusive, and then no other
//     cache holds it at all;
//  2. an Exclusive copy at node i implies the home directory records
//     {Exclusive, owner=i};
//  3. a Shared copy at node i implies the home records i as a sharer
//     (stale directory sharers from silent evictions are permitted —
//     the set may be a superset, never a subset).
func checkCoherence(t *testing.T, m *Machine) {
	t.Helper()
	type holder struct {
		node int
		st   cache.State
	}
	holders := map[uint32][]holder{}
	// Every cached block went through its home directory, so the union
	// of directory entries covers the cached universe.
	blocks := map[uint32]bool{}
	for _, n := range m.Nodes {
		for _, b := range n.cache.dir.Blocks() {
			blocks[b] = true
		}
	}
	for b := range blocks {
		for _, n := range m.Nodes {
			if st, ok := n.cache.cache.Probe(b); ok {
				holders[b] = append(holders[b], holder{node: n.Proc.ID, st: st})
			}
		}
	}
	for b, hs := range holders {
		home := m.net.dist.Home(b * m.net.cfg.Cache.BlockBytes)
		e := m.Nodes[home].cache.dir.Entry(b)
		var exclusive []int
		for _, h := range hs {
			if h.st == cache.Exclusive {
				exclusive = append(exclusive, h.node)
			}
		}
		if len(exclusive) > 1 {
			t.Fatalf("block %#x: multiple exclusive holders %v", b, exclusive)
		}
		if len(exclusive) == 1 {
			if len(hs) != 1 {
				t.Fatalf("block %#x: exclusive at %d alongside other copies %v", b, exclusive[0], hs)
			}
			if e.State != directory.Exclusive || int(e.Owner) != exclusive[0] {
				t.Fatalf("block %#x: cache exclusive at %d but home says %v owner %d",
					b, exclusive[0], e.State, e.Owner)
			}
			continue
		}
		for _, h := range hs {
			if h.st != cache.Shared {
				continue
			}
			if e.State == directory.Shared && e.Sharers.Has(h.node) {
				continue
			}
			t.Fatalf("block %#x: shared copy at node %d unknown to home (dir %v %s owner %d)",
				b, h.node, e.State, e.Sharers.String(), e.Owner)
		}
	}
}

func TestCoherenceStress(t *testing.T) {
	for _, nodes := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			m := newAlewifeMachine(t, nodes)
			rng := rand.New(rand.NewSource(int64(nodes) * 977))

			// A small region so every block is contended.
			const blocks = 8
			base := uint32(0x100000)
			flavRead := isa.OpLdnt.Flavor()
			flavWrite := isa.OpStnt.Flavor()

			steps := 30000
			if testing.Short() {
				steps = 5000
			}
			for step := 0; step < steps; step++ {
				node := rng.Intn(nodes)
				addr := base + uint32(rng.Intn(blocks))*16 + uint32(rng.Intn(4))*4
				store := rng.Intn(3) == 0
				ctl := m.Nodes[node].cache
				var err error
				if store {
					_, err = ctl.Access(addr, flavWrite, true, isa.MakeFixnum(int32(step)))
				} else {
					_, err = ctl.Access(addr, flavRead, false, 0)
				}
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				// RemoteMiss replies are the processor's trap; the
				// "processor" here just tries a different access next
				// step, as a switch-spinning machine would.
				m.net.tick()
			}
			quiesce(t, m)
			checkCoherence(t, m)
		})
	}
}

// TestCoherenceFunctional checks writes are never lost: one node
// increments a counter word under exclusive ownership; other nodes
// read it. The final value must equal the number of completed
// increments.
func TestCoherenceFunctional(t *testing.T) {
	m := newAlewifeMachine(t, 4)
	addr := uint32(0x200000)
	writer := m.Nodes[0].cache
	readers := []*cacheCtl{m.Nodes[1].cache, m.Nodes[2].cache, m.Nodes[3].cache}
	flavRead := isa.OpLdnt.Flavor()
	flavWrite := isa.OpStnt.Flavor()

	completed := 0
	val := int32(0)
	for i := 0; i < 5000; i++ {
		// Writer: read-modify-write when it can.
		if res, err := writer.Access(addr, flavRead, false, 0); err != nil {
			t.Fatal(err)
		} else if res.Outcome == proc.OK {
			val = isa.FixnumValue(res.Value) + 1
			if res2, err := writer.Access(addr, flavWrite, true, isa.MakeFixnum(val)); err != nil {
				t.Fatal(err)
			} else if res2.Outcome == proc.OK {
				completed++
			}
		}
		// Readers poke at it, forcing downgrades.
		r := readers[i%3]
		if _, err := r.Access(addr, flavRead, false, 0); err != nil {
			t.Fatal(err)
		}
		m.net.tick()
	}
	quiesce(t, m)
	final := isa.FixnumValue(m.Mem.MustLoad(addr))
	if int(final) != completed {
		t.Errorf("final counter %d, completed increments %d", final, completed)
	}
	checkCoherence(t, m)
}
