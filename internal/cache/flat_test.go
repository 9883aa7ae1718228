package cache

import "fmt"

// flatCache is the line store the chunked one replaced: every line of
// the cache in one set-major slice, allocated up front. It is the
// oracle of the differential tests, kept as simple as the replacement
// rules allow (modulo indexing for every set count).
type flatCache struct {
	lines []line
	nsets uint32
	ways  int
	valid int

	hits, misses, evictions, writebacks, invalidations uint64
}

func newFlat(cfg Config) *flatCache {
	blocks := cfg.SizeBytes / cfg.BlockBytes
	return &flatCache{lines: make([]line, blocks), nsets: blocks / uint32(cfg.Assoc), ways: cfg.Assoc}
}

func (c *flatCache) set(block uint32) []line {
	base := int(block%c.nsets) * c.ways
	return c.lines[base : base+c.ways]
}

func (c *flatCache) find(block uint32) *line {
	set := c.set(block)
	for i := range set {
		if set[i].state != Invalid && set[i].block == block {
			return &set[i]
		}
	}
	return nil
}

// stamp is the LRU stamp block's set gives its next hit or fill.
func (c *flatCache) stamp(block uint32) uint64 {
	var top uint64
	for _, l := range c.set(block) {
		top = max(top, l.lru)
	}
	return top + 1
}

func (c *flatCache) touch(l *line) {
	l.lru = c.stamp(l.block)
	c.hits++
}

func (c *flatCache) lookup(block uint32) (State, bool) {
	if l := c.find(block); l != nil {
		c.touch(l)
		return l.state, true
	}
	c.misses++
	return Invalid, false
}

func (c *flatCache) insert(block uint32, st State) (Victim, bool) {
	if l := c.find(block); l != nil {
		l.state, l.lru = st, c.stamp(block)
		return Victim{}, false
	}
	set := c.set(block)
	vi := 0
	for i := range set {
		if set[i].state == Invalid {
			vi = i
			break
		}
		if set[i].lru < set[vi].lru {
			vi = i
		}
	}
	var victim Victim
	evicted := set[vi].state != Invalid
	if evicted {
		victim = Victim{Block: set[vi].block, State: set[vi].state, Dirty: set[vi].dirty}
		c.evictions++
		if victim.Dirty {
			c.writebacks++
		}
	} else {
		c.valid++
	}
	set[vi] = line{block: block, state: st, lru: c.stamp(block)}
	return victim, evicted
}

func (c *flatCache) setState(block uint32, st State) bool {
	l := c.find(block)
	if l == nil {
		return false
	}
	l.state = st
	if st != Exclusive {
		l.dirty = false
	}
	if st == Invalid {
		*l = line{}
		c.invalidations++
		c.valid--
	}
	return true
}

func (c *flatCache) invalidate(block uint32) (wasDirty, wasPresent bool) {
	l := c.find(block)
	if l == nil {
		return false, false
	}
	wasDirty = l.dirty
	*l = line{}
	c.invalidations++
	c.valid--
	return wasDirty, true
}

func (c *flatCache) setSlot(slot int, block uint32, st State, dirty bool, lru uint64) error {
	if slot < 0 || slot >= len(c.lines) || st > Exclusive {
		return fmt.Errorf("slot %d state %d refused", slot, st)
	}
	if c.lines[slot].state != Invalid {
		c.valid--
	}
	c.lines[slot] = line{}
	if st != Invalid {
		c.valid++
		c.lines[slot] = line{block: block, state: st, dirty: dirty, lru: lru}
	}
	return nil
}

func (c *flatCache) forEach(fn func(slot int, block uint32, st State, dirty bool, lru uint64)) {
	for i := range c.lines {
		if l := &c.lines[i]; l.state != Invalid {
			fn(i, l.block, l.state, l.dirty, l.lru)
		}
	}
}
