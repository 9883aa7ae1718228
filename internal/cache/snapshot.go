package cache

import "fmt"

// Snapshot support. Replacement is observable: Insert picks the first
// Invalid slot, else the lowest-lru way, so a bit-identical restore
// must reproduce slot positions and per-line lru stamps — not just the
// set of valid blocks. An invalid line holds stamp 0, so the valid
// lines are all a set's stamps derive from. ForEach walks the valid
// lines in slot order, so encodings are deterministic, and SetSlot puts
// one back.

// Geometry returns the number of sets and ways.
func (c *Cache) Geometry() (sets, ways int) { return int(c.nsets), c.ways }

// SetSlot restores one slot, by the set*ways + way index ForEach
// reports. It performs no stats or LRU bookkeeping. An Invalid line is
// stored empty (stamp 0), and into a chunk that holds none allocates
// nothing: it is already there.
func (c *Cache) SetSlot(slot int, block uint32, st State, dirty bool, lru uint64) error {
	if slot < 0 || slot >= int(c.nsets)*c.ways {
		return fmt.Errorf("cache: slot %d out of range (%d sets × %d ways)", slot, c.nsets, c.ways)
	}
	if st > Exclusive {
		return fmt.Errorf("cache: slot %d has invalid state %d", slot, st)
	}
	k := slot / (ChunkSets * c.ways)
	if st == Invalid && c.chunks[k] == nil {
		return nil
	}
	l := &c.chunk(k)[slot-k*ChunkSets*c.ways]
	if l.state != Invalid {
		c.valid--
	}
	*l = line{}
	if st != Invalid {
		c.valid++
		*l = line{block: block, state: st, dirty: dirty, lru: lru}
	}
	return nil
}
