package cache

import (
	"testing"
	"testing/quick"
)

func newCache(t *testing.T, size, block uint32, assoc int) *Cache {
	t.Helper()
	c, err := New(Config{SizeBytes: size, BlockBytes: block, Assoc: assoc})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{SizeBytes: 100, BlockBytes: 16, Assoc: 1}, // size not multiple
		{SizeBytes: 64, BlockBytes: 16, Assoc: 3},  // blocks not divisible
		{SizeBytes: 64, BlockBytes: 16, Assoc: 0},
		{SizeBytes: 64, BlockBytes: 0, Assoc: 1},
		{SizeBytes: 0, BlockBytes: 16, Assoc: 1},  // no sets
		{SizeBytes: 96, BlockBytes: 24, Assoc: 1}, // block not a power of two
		{SizeBytes: 64, BlockBytes: 2, Assoc: 1},  // block below one word
		{SizeBytes: 64, BlockBytes: 16, Assoc: 1 << 32},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v validated", cfg)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestDefaultIsTable4(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.SizeBytes != 64<<10 || cfg.BlockBytes != 16 {
		t.Errorf("default %+v, want 64KB/16B per Table 4", cfg)
	}
}

func TestHitMissAndStates(t *testing.T) {
	c := newCache(t, 256, 16, 2)
	if _, hit := c.Lookup(5); hit {
		t.Error("hit in empty cache")
	}
	c.Insert(5, Shared)
	if st, hit := c.Lookup(5); !hit || st != Shared {
		t.Errorf("lookup after insert = %v,%v", st, hit)
	}
	c.Insert(5, Exclusive) // upgrade in place
	if st, _ := c.Lookup(5); st != Exclusive {
		t.Errorf("upgrade failed: %v", st)
	}
	if c.Hits != 2 || c.Misses != 1 {
		t.Errorf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way, 8 sets of 16B blocks in 256B.
	c := newCache(t, 256, 16, 2)
	// Blocks 0, 8, 16 map to set 0.
	c.Insert(0, Shared)
	c.Insert(8, Shared)
	c.Lookup(0) // touch 0 so 8 is LRU
	v, evicted := c.Insert(16, Shared)
	if !evicted || v.Block != 8 {
		t.Errorf("evicted %+v, want block 8", v)
	}
	if _, hit := c.Probe(0); !hit {
		t.Error("recently used block 0 evicted")
	}
}

func TestDirtyVictims(t *testing.T) {
	c := newCache(t, 256, 16, 2)
	c.Insert(0, Exclusive)
	markDirty(c, 0)
	c.Insert(8, Shared)
	v, evicted := c.Insert(16, Shared) // 0 is LRU
	if !evicted || v.Block != 0 || !v.Dirty || v.State != Exclusive {
		t.Errorf("victim = %+v", v)
	}
	if c.Writebacks != 1 {
		t.Errorf("writebacks = %d", c.Writebacks)
	}
}

func TestInvalidateAndDowngrade(t *testing.T) {
	c := newCache(t, 256, 16, 2)
	c.Insert(3, Exclusive)
	markDirty(c, 3)
	if !dirty(c, 3) {
		t.Error("dirty bit lost")
	}
	c.SetState(3, Shared) // downgrade clears dirty
	if dirty(c, 3) {
		t.Error("downgrade kept dirty bit")
	}
	wasDirty, present := c.Invalidate(3)
	if wasDirty || !present {
		t.Errorf("invalidate = %v,%v", wasDirty, present)
	}
	if _, hit := c.Probe(3); hit {
		t.Error("block present after invalidate")
	}
	if _, present := c.Invalidate(99); present {
		t.Error("invalidate of absent block reported present")
	}
}

func TestOccupancyBounded(t *testing.T) {
	c := newCache(t, 1024, 16, 4)
	f := func(blocks []uint16) bool {
		for _, b := range blocks {
			c.Insert(uint32(b), Shared)
		}
		return c.Occupancy() <= 64 // 1024/16 lines total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestInsertedAlwaysFindable(t *testing.T) {
	c := newCache(t, 4096, 16, 4)
	f := func(b uint32) bool {
		b %= 1 << 20
		c.Insert(b, Exclusive)
		st, hit := c.Probe(b)
		return hit && st == Exclusive
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMissRatio(t *testing.T) {
	c := newCache(t, 256, 16, 2)
	c.Lookup(1) // miss
	c.Insert(1, Shared)
	c.Lookup(1) // hit
	c.Lookup(1) // hit
	if r := c.MissRatio(); r < 0.32 || r > 0.34 {
		t.Errorf("miss ratio %v, want 1/3", r)
	}
}

func TestBlockMapping(t *testing.T) {
	c := newCache(t, 256, 16, 2)
	if c.Block(0) != 0 || c.Block(15) != 0 || c.Block(16) != 1 || c.Block(161) != 10 {
		t.Error("block mapping wrong")
	}
}

// TestSlotContractAcrossGeometries pins the (set, way) contract of
// DumpSlots/SetSlot over the flat line store, for a power-of-two set
// count (mask indexing) and one that is not (modulo indexing): a block
// lands in set block%sets, slots dump in (set, way) order, and a dump
// replayed through SetSlot rebuilds an identical cache.
func TestSlotContractAcrossGeometries(t *testing.T) {
	for _, g := range []struct {
		size  uint32
		assoc int
		sets  int
	}{{256, 2, 8}, {192, 2, 6}} {
		c := newCache(t, g.size, 16, g.assoc)
		if sets, ways := c.Geometry(); sets != g.sets || ways != g.assoc {
			t.Fatalf("geometry (%d,%d), want (%d,%d)", sets, ways, g.sets, g.assoc)
		}
		for b := uint32(0); b < 40; b += 3 {
			c.Insert(b, Shared)
		}
		r := newCache(t, g.size, 16, g.assoc)
		next := 0
		c.DumpSlots(func(set, way int, block uint32, st State, dirty bool, lru uint64) {
			if set*g.assoc+way != next {
				t.Fatalf("%d sets: slot (%d,%d) out of (set, way) order", g.sets, set, way)
			}
			next++
			if st != Invalid && int(block)%g.sets != set {
				t.Errorf("%d sets: block %d in set %d", g.sets, block, set)
			}
			if err := r.SetSlot(set, way, block, st, dirty, lru); err != nil {
				t.Fatal(err)
			}
		})
		if next != g.sets*g.assoc {
			t.Fatalf("%d sets: dumped %d slots", g.sets, next)
		}
		for b := uint32(0); b < 40; b++ {
			cs, chit := c.Probe(b)
			rs, rhit := r.Probe(b)
			if cs != rs || chit != rhit {
				t.Errorf("%d sets: block %d: original (%v,%v), rebuilt (%v,%v)", g.sets, b, cs, chit, rs, rhit)
			}
		}
		if err := r.SetSlot(g.sets, 0, 0, Shared, false, 0); err == nil {
			t.Errorf("%d sets: SetSlot accepted set %d", g.sets, g.sets)
		}
	}
}
