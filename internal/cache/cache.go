// Package cache implements the per-node cache of an ALEWIFE node. The
// simulator separates timing state from data: the cache tracks which
// blocks are present and with what permissions (the coherence protocol
// serializes writers, so values can live in the flat functional memory),
// which is the same structure as the paper's cache simulator driving a
// functional interpreter (Figure 4).
package cache

import "fmt"

// State is a block's local coherence state.
type State uint8

const (
	Invalid   State = iota
	Shared          // read-only copy
	Exclusive       // sole read-write copy
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	}
	return "?"
}

// Config sizes the cache. Table 4 defaults: 64 KB, 16-byte blocks.
type Config struct {
	SizeBytes  uint32
	BlockBytes uint32
	Assoc      int
}

// DefaultConfig is the Table 4 cache.
func DefaultConfig() Config {
	return Config{SizeBytes: 64 << 10, BlockBytes: 16, Assoc: 4}
}

// Validate checks the geometry.
func (c Config) Validate() error {
	if c.BlockBytes < 4 || c.BlockBytes&(c.BlockBytes-1) != 0 {
		return fmt.Errorf("cache: block of %d bytes, want a power of two of at least one word", c.BlockBytes)
	}
	if c.SizeBytes == 0 || c.SizeBytes%c.BlockBytes != 0 {
		return fmt.Errorf("cache: size %d not a positive multiple of block %d", c.SizeBytes, c.BlockBytes)
	}
	blocks := c.SizeBytes / c.BlockBytes
	if c.Assoc < 1 || c.Assoc > int(blocks) {
		return fmt.Errorf("cache: associativity %d with %d blocks", c.Assoc, blocks)
	}
	if blocks%uint32(c.Assoc) != 0 {
		return fmt.Errorf("cache: %d blocks not divisible by associativity %d", blocks, c.Assoc)
	}
	return nil
}

type line struct {
	block  uint32 // block number (addr / BlockBytes)
	state  State
	dirty  bool
	locked bool // the controller's first-use interlock flag (see Line)
	lru    uint64
}

// ChunkSets is how many consecutive sets share one chunk of lines: 256
// lines, 4 KiB, for the Table 4 cache. Smaller chunks would track
// touched ranges more closely, but every hit reads the chunk table, and
// a longer table is dearer to keep in the host's caches (see DESIGN.md,
// "Touch-granular cache lines").
const ChunkSets = 64

// Cache is a set-associative cache indexed by block number. The lines
// live set-major in chunks of ChunkSets sets (set s is chunk s/ChunkSets,
// lines (s%ChunkSets)*ways onward); the last chunk holds whatever sets
// remain. A chunk is allocated by the first line installed in it, so an
// untouched cache costs only its chunk table, and never moves once
// allocated, so Line handles into it stay put. A lookup is two pointer
// chases: the table, then the set.
type Cache struct {
	cfg    Config
	chunks [][]line // nil until a line is installed in the chunk
	nsets  uint32
	ways   int
	// mask is nsets-1 when the set count is a power of two (every
	// default geometry), sparing the lookup a hardware divide; pow2
	// false keeps the modulo.
	mask  uint32
	pow2  bool
	clock uint64
	valid int // lines not Invalid: Occupancy without a walk

	Stats
}

// Stats counts a cache's lookups and line movements.
type Stats struct {
	Hits                      uint64 `counter:"cache_hits"`
	Misses                    uint64 `counter:"cache_misses"`
	Evictions                 uint64 `counter:"cache_evictions"`
	Writebacks, Invalidations uint64
}

// New builds a cache.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.SizeBytes / cfg.BlockBytes / uint32(cfg.Assoc)
	return &Cache{
		cfg:    cfg,
		chunks: make([][]line, (nsets+ChunkSets-1)/ChunkSets),
		nsets:  nsets,
		ways:   cfg.Assoc,
		mask:   nsets - 1,
		pow2:   nsets&(nsets-1) == 0,
	}, nil
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Block maps a byte address to its block number.
func (c *Cache) Block(addr uint32) uint32 { return addr / c.cfg.BlockBytes }

func (c *Cache) setIndex(block uint32) uint32 {
	if c.pow2 {
		return block & c.mask
	}
	return block % c.nsets
}

// set returns set si's ways, or nil when its chunk holds no lines yet.
func (c *Cache) set(si uint32) []line {
	ch := c.chunks[si/ChunkSets]
	if ch == nil {
		return nil
	}
	base := int(si%ChunkSets) * c.ways
	return ch[base : base+c.ways]
}

// chunk returns chunk k, allocating it on first use.
func (c *Cache) chunk(k int) []line {
	if c.chunks[k] == nil {
		sets := min(ChunkSets, int(c.nsets)-k*ChunkSets)
		c.chunks[k] = make([]line, sets*c.ways)
	}
	return c.chunks[k]
}

func (c *Cache) find(block uint32) *line {
	set := c.set(c.setIndex(block))
	for i := range set {
		if set[i].state != Invalid && set[i].block == block {
			return &set[i]
		}
	}
	return nil
}

// Line is a handle on a resident line: the hit primitive. Find probes
// the set once and touches nothing; the caller decides on permission
// from State and Locked, then commits the hit through Touch (LRU and
// Hits) and MarkDirty — or walks away, leaving no trace of the probe. A
// handle is valid until the next Insert, Invalidate or SetState.
type Line struct {
	c *Cache
	l *line
}

// Find returns a handle on block's line, or false when the block is
// not resident. A miss is not counted: that is the caller's decision.
func (c *Cache) Find(block uint32) (Line, bool) {
	l := c.find(block)
	return Line{c, l}, l != nil
}

// Touch commits a hit: most recently used in its set, and counted.
func (h Line) Touch() {
	h.c.clock++
	h.l.lru = h.c.clock
	h.c.Hits++
}

// State, Dirty and Locked read the line; MarkDirty notes that the
// (exclusive) line was written. The interlock flag is only stored
// here: the controller sets it on a line it protects from recalls
// until first use, and it falls when the line leaves the cache.
func (h Line) State() State      { return h.l.state }
func (h Line) Dirty() bool       { return h.l.dirty }
func (h Line) Locked() bool      { return h.l.locked }
func (h Line) MarkDirty()        { h.l.dirty = true }
func (h Line) SetLocked(on bool) { h.l.locked = on }

// Lookup is Find committed at once: a touched hit, or a counted miss.
func (c *Cache) Lookup(block uint32) (State, bool) {
	if l := c.find(block); l != nil {
		Line{c, l}.Touch()
		return l.state, true
	}
	c.Misses++
	return Invalid, false
}

// Probe reads the state without touching LRU or stats.
func (c *Cache) Probe(block uint32) (State, bool) {
	if l := c.find(block); l != nil {
		return l.state, true
	}
	return Invalid, false
}

// Victim describes an evicted block.
type Victim struct {
	Block uint32
	State State
	Dirty bool
}

// Insert installs block with the given state (Shared or Exclusive;
// Invalidate is how a line leaves), returning the evicted victim if the
// set was full.
func (c *Cache) Insert(block uint32, st State) (Victim, bool) {
	if l := c.find(block); l != nil {
		// Upgrade/downgrade in place.
		l.state = st
		c.clock++
		l.lru = c.clock
		return Victim{}, false
	}
	si := c.setIndex(block)
	base := int(si%ChunkSets) * c.ways
	set := c.chunk(int(si / ChunkSets))[base : base+c.ways]
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
		c.Evictions++
		if victim.Dirty {
			c.Writebacks++
		}
	} else {
		c.valid++
	}
	c.clock++
	set[vi] = line{block: block, state: st, lru: c.clock}
	return victim, evicted
}

// SetState changes a cached block's state (downgrades clear dirty).
func (c *Cache) SetState(block uint32, st State) bool {
	l := c.find(block)
	if l == nil {
		return false
	}
	l.state = st
	if st != Exclusive {
		l.dirty = false
	}
	if st == Invalid {
		l.locked = false
		c.Invalidations++
		c.valid--
	}
	return true
}

// Invalidate removes a block, reporting whether it was present and
// dirty.
func (c *Cache) Invalidate(block uint32) (wasDirty, wasPresent bool) {
	l := c.find(block)
	if l == nil {
		return false, false
	}
	wasDirty = l.dirty
	l.state = Invalid
	l.dirty, l.locked = false, false
	c.Invalidations++
	c.valid--
	return wasDirty, true
}

// Occupancy is the number of valid lines: kept as lines come and go,
// so sizing a snapshot does not walk the cache.
func (c *Cache) Occupancy() int { return c.valid }

// ForEach calls fn for every valid line in slot order, with its slot
// index (set*ways + way) and lru stamp: what a snapshot needs to put the
// line back where it was (see SetSlot). Invalid slots cost a state test
// and no call; unallocated chunks cost nothing. Cold path: snapshots and
// the fault checker's coherence audits walk whole caches with it.
func (c *Cache) ForEach(fn func(slot int, block uint32, st State, dirty bool, lru uint64)) {
	for k, ch := range c.chunks {
		base := k * ChunkSets * c.ways
		for i := range ch {
			if l := &ch[i]; l.state != Invalid {
				fn(base+i, l.block, l.state, l.dirty, l.lru)
			}
		}
	}
}

// ResidentChunks is the number of allocated chunks: host memory, not
// simulated state (a restored cache allocates only the chunks its valid
// lines land in, however many the original had touched).
func (c *Cache) ResidentChunks() int {
	n := 0
	for _, ch := range c.chunks {
		if ch != nil {
			n++
		}
	}
	return n
}

// MissRatio is misses / (hits + misses).
func (c *Cache) MissRatio() float64 {
	t := c.Hits + c.Misses
	if t == 0 {
		return 0
	}
	return float64(c.Misses) / float64(t)
}
