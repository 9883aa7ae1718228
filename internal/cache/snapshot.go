package cache

import "fmt"

// Snapshot support. Replacement is observable: Insert picks the first
// Invalid slot, else the lowest-lru way, so a bit-identical restore
// must reproduce slot positions, per-line lru stamps, and the lru
// clock — not just the set of valid blocks. The accessors below walk
// slots in (set, way) order so encodings are deterministic.

// Geometry returns the number of sets and ways.
func (c *Cache) Geometry() (sets, ways int) { return int(c.nsets), c.ways }

// Clock returns the LRU clock.
func (c *Cache) Clock() uint64 { return c.clock }

// SetClock restores the LRU clock.
func (c *Cache) SetClock(v uint64) { c.clock = v }

// DumpSlots calls fn for every slot (valid or not) in (set, way)
// order.
func (c *Cache) DumpSlots(fn func(set, way int, block uint32, st State, dirty bool, lru uint64)) {
	for i := range c.lines {
		l := &c.lines[i]
		fn(i/c.ways, i%c.ways, l.block, l.state, l.dirty, l.lru)
	}
}

// SetSlot restores one slot. It is the restore-side counterpart of
// DumpSlots and performs no stats or LRU bookkeeping.
func (c *Cache) SetSlot(set, way int, block uint32, st State, dirty bool, lru uint64) error {
	if set < 0 || set >= int(c.nsets) || way < 0 || way >= c.ways {
		return fmt.Errorf("cache: slot (%d,%d) out of range (%d sets × %d ways)",
			set, way, c.nsets, c.ways)
	}
	if st > Exclusive {
		return fmt.Errorf("cache: slot (%d,%d) has invalid state %d", set, way, st)
	}
	c.lines[set*c.ways+way] = line{block: block, state: st, dirty: dirty, lru: lru}
	return nil
}
