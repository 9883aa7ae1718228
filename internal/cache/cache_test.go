package cache

import (
	"slices"
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

// TestOccupancyCountsValidLines: the kept count equals a walk's count
// of valid lines under any mix of the operations that move lines in and
// out — inserts with evictions, invalidations, downgrades to Invalid
// and Shared, and slot restores over valid and invalid slots.
func TestOccupancyCountsValidLines(t *testing.T) {
	f := func(ops []uint16) bool {
		c := newCache(t, 512, 16, 2) // 16 sets: blocks below 64 collide
		for _, op := range ops {
			b := uint32(op>>3) % 64
			switch op & 7 {
			case 0, 1, 2:
				c.Insert(b, State(1+op&1))
			case 3:
				c.Invalidate(b)
			case 4:
				c.SetState(b, Invalid)
			case 5:
				c.SetState(b, Shared)
			case 6:
				c.SetSlot(int(b)%32, b, State(op>>9%3), false, uint64(op))
			case 7:
				if h, ok := c.Find(b); ok {
					h.Touch()
				}
			}
			walked := 0
			c.ForEach(func(int, uint32, State, bool, uint64) { walked++ })
			if c.Occupancy() != walked {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
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

// TestSlotContractAcrossGeometries pins the slot contract of
// ForEach/SetSlot over the chunked line store (slots number set*ways +
// way across chunks, as in the flat store it replaced), for a
// power-of-two set count (mask indexing) and one that is not (modulo
// indexing): ForEach
// visits exactly the valid lines, in ascending slot order, a block sits
// in set block%sets (slot/ways), and the walk replayed through SetSlot
// into an empty cache rebuilds one that probes, replaces and walks the
// same.
func TestSlotContractAcrossGeometries(t *testing.T) {
	type slotLine struct {
		slot  int
		block uint32
		st    State
		dirty bool
		lru   uint64
	}
	walk := func(c *Cache) []slotLine {
		var ls []slotLine
		c.ForEach(func(slot int, block uint32, st State, dirty bool, lru uint64) {
			ls = append(ls, slotLine{slot, block, st, dirty, lru})
		})
		return ls
	}
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
		c.Insert(9, Exclusive)
		if h, ok := c.Find(9); ok {
			h.MarkDirty()
		}
		c.Invalidate(0) // an invalid slot between valid ones
		lines := walk(c)
		if len(lines) != c.Occupancy() {
			t.Fatalf("%d sets: walked %d lines, %d valid", g.sets, len(lines), c.Occupancy())
		}
		r := newCache(t, g.size, 16, g.assoc)
		for i, l := range lines {
			if i > 0 && l.slot <= lines[i-1].slot {
				t.Fatalf("%d sets: slot %d after slot %d", g.sets, l.slot, lines[i-1].slot)
			}
			if l.st == Invalid || int(l.block)%g.sets != l.slot/g.assoc {
				t.Errorf("%d sets: block %d (state %v) in slot %d", g.sets, l.block, l.st, l.slot)
			}
			if err := r.SetSlot(l.slot, l.block, l.st, l.dirty, l.lru); err != nil {
				t.Fatal(err)
			}
		}
		if got := walk(r); !slices.Equal(got, lines) {
			t.Errorf("%d sets: rebuilt cache walks %v, want %v", g.sets, got, lines)
		}
		for b := uint32(0); b < 40; b++ {
			cs, chit := c.Probe(b)
			rs, rhit := r.Probe(b)
			if cs != rs || chit != rhit {
				t.Errorf("%d sets: block %d: original (%v,%v), rebuilt (%v,%v)", g.sets, b, cs, chit, rs, rhit)
			}
		}
		// Replacement depends on slots and lru stamps: the same insert
		// evicts the same victim from both.
		cv, cev := c.Insert(100, Shared)
		rv, rev := r.Insert(100, Shared)
		if cv != rv || cev != rev {
			t.Errorf("%d sets: insert evicted (%v,%v) from original, (%v,%v) from rebuilt", g.sets, cv, cev, rv, rev)
		}
		if err := r.SetSlot(g.sets*g.assoc, 0, Shared, false, 0); err == nil {
			t.Errorf("%d sets: SetSlot accepted slot %d", g.sets, g.sets*g.assoc)
		}
		if err := r.SetSlot(0, 0, Exclusive+1, false, 0); err == nil {
			t.Errorf("%d sets: SetSlot accepted state %d", g.sets, Exclusive+1)
		}
	}
}
