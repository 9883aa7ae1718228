package sim

import (
	"math/rand"
	"testing"

	"april/internal/isa"
	"april/internal/proc"
	"april/internal/rts"
)

// Per-layer microbenchmarks (ROADMAP item 1a): one load hit and one
// store hit through the controller port of a one-node ALEWIFE machine —
// cache probe, full/empty-aware access to the flat store, LRU, counters
// and interlock test, everything a hit costs below the processor. Both
// callers of the one hit routine are timed: per-op (MemPort.Access) and
// clock-free (FusedPort.FusedHit). Addresses are uniform over the
// resident half of the Table 4 cache.

var ctlBenchSink uint64

func benchCtlHit(b *testing.B, store bool) {
	m, err := New(Config{Nodes: 1, Profile: rts.APRIL, Alewife: &AlewifeConfig{}})
	if err != nil {
		b.Fatal(err)
	}
	ctl := m.Nodes[0].cache
	const base, span = 0x100000, 32 << 10
	for a := uint32(base); a < base+span; a += 16 {
		// A store fills the line exclusive (a local miss on one node).
		if res, err := ctl.Access(a, isa.MemFlavor{}, true, 1); err != nil || res.Outcome != proc.OK {
			b.Fatalf("warming %#x: %+v, %v", a, res, err)
		}
	}
	r := rand.New(rand.NewSource(1))
	addrs := make([]uint32, 1<<14)
	for i := range addrs {
		addrs[i] = base + uint32(r.Intn(span/4))*4
	}
	b.Run("per-op", func(b *testing.B) {
		misses := ctl.cache.Misses
		for i := 0; i < b.N; i++ {
			res, err := ctl.Access(addrs[i&(len(addrs)-1)], isa.MemFlavor{}, store, isa.Word(i))
			if err != nil {
				b.Fatal(err)
			}
			ctlBenchSink += uint64(res.Value)
		}
		if ctl.cache.Misses != misses {
			b.Fatal("a timed access missed")
		}
	})
	b.Run("clock-free", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			prev, _, ok := ctl.FusedHit(addrs[i&(len(addrs)-1)], store, isa.Word(i))
			if !ok {
				b.Fatal("a timed access was refused")
			}
			ctlBenchSink += uint64(prev)
		}
	})
}

func BenchmarkCtlLoadHit(b *testing.B)  { benchCtlHit(b, false) }
func BenchmarkCtlStoreHit(b *testing.B) { benchCtlHit(b, true) }
