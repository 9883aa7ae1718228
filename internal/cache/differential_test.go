package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The chunked line store against the flat one it replaced (flat_test.go):
// the same operations, decoded from bytes, must give the same results,
// victims, counters, occupancy and ForEach stream, on every geometry.

// diffGeometries are the shapes the chunk table must get right: the
// Table 4 cache (16 chunks), the synthetic workload's 2 KiB cache (32
// sets, less than one chunk), a set count that is not a power of two
// (96: one full chunk and a partial one, modulo indexing), a
// direct-mapped cache and a fully associative one (one set).
var diffGeometries = []Config{
	DefaultConfig(),
	{SizeBytes: 2 << 10, BlockBytes: 16, Assoc: 4},
	{SizeBytes: 3 << 10, BlockBytes: 16, Assoc: 2},
	{SizeBytes: 4 << 10, BlockBytes: 16, Assoc: 1},
	{SizeBytes: 1 << 10, BlockBytes: 16, Assoc: 64},
}

// opBytes is one encoded operation: the kind, three block bytes and an
// auxiliary byte (state, flags, slot way).
const opBytes = 5

type slotLine struct {
	slot  int
	block uint32
	st    State
	dirty bool
	lru   uint64
}

func walkChunked(c *Cache) []slotLine {
	var ls []slotLine
	c.ForEach(func(slot int, block uint32, st State, dirty bool, lru uint64) {
		ls = append(ls, slotLine{slot, block, st, dirty, lru})
	})
	return ls
}

func walkFlat(c *flatCache) []slotLine {
	var ls []slotLine
	c.forEach(func(slot int, block uint32, st State, dirty bool, lru uint64) {
		ls = append(ls, slotLine{slot, block, st, dirty, lru})
	})
	return ls
}

// diffOps runs ops (opBytes each; a trailing fragment is ignored) on a
// chunked cache and a flat one of geometry cfg, and returns the chunked
// cache, or the first divergence. Blocks fall in the first
// nsets>>spanShift sets, with up to 2*ways+1 tags per set, so every set
// that is used overflows; a larger spanShift confines the run to fewer
// chunks.
func diffOps(cfg Config, spanShift uint, ops []byte) (*Cache, error) {
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	f := newFlat(cfg)
	ways := uint32(cfg.Assoc)
	span := max(1, c.nsets>>spanShift)
	for i := 0; i+opBytes <= len(ops); i += opBytes {
		kind, aux := ops[i], ops[i+4]
		v := uint32(ops[i+1])<<16 | uint32(ops[i+2])<<8 | uint32(ops[i+3])
		set := (v & 0xffff) % span
		block := (v>>16)%(2*ways+1)*c.nsets + set
		fail := func(format string, args ...any) (*Cache, error) {
			return nil, fmt.Errorf("op %d (kind %d, block %d, aux %#x): %s", i/opBytes, kind%16, block, aux, fmt.Sprintf(format, args...))
		}
		switch kind % 16 {
		case 0, 1, 2, 3, 4:
			st := State(1 + aux&1)
			v, ev := c.Insert(block, st)
			fv, fev := f.insert(block, st)
			if v != fv || ev != fev {
				return fail("insert evicted %+v (%v), flat %+v (%v)", v, ev, fv, fev)
			}
		case 5, 6:
			st, hit := c.Lookup(block)
			fst, fhit := f.lookup(block)
			if st != fst || hit != fhit {
				return fail("lookup (%v,%v), flat (%v,%v)", st, hit, fst, fhit)
			}
		case 7, 8, 9:
			ln, ok := c.Find(block)
			fl := f.find(block)
			if ok != (fl != nil) {
				return fail("find %v, flat %v", ok, fl != nil)
			}
			if !ok {
				break
			}
			if ln.State() != fl.state || ln.Dirty() != fl.dirty || ln.Locked() != fl.locked {
				return fail("line (%v,%v,%v), flat (%v,%v,%v)", ln.State(), ln.Dirty(), ln.Locked(), fl.state, fl.dirty, fl.locked)
			}
			if aux&1 != 0 {
				ln.Touch()
				f.touch(fl)
			}
			if aux&2 != 0 && fl.state == Exclusive {
				ln.MarkDirty()
				fl.dirty = true
			}
			if aux&4 != 0 {
				ln.SetLocked(aux&8 != 0)
				fl.locked = aux&8 != 0
			}
		case 10:
			st := State(aux % 3)
			if got, want := c.SetState(block, st), f.setState(block, st); got != want {
				return fail("SetState(%v) = %v, flat %v", st, got, want)
			}
		case 11:
			d, p := c.Invalidate(block)
			fd, fp := f.invalidate(block)
			if d != fd || p != fp {
				return fail("invalidate (%v,%v), flat (%v,%v)", d, p, fd, fp)
			}
		case 12:
			// A restore: into one of the block's own ways, into a way of
			// another set inside the span, or into a slot out of range.
			slotSet := set
			if aux&0x40 != 0 {
				slotSet = (v & 0xffff) / span % span
			}
			slot := int(slotSet)*int(ways) + int(aux)%int(ways)
			if aux&0x80 != 0 {
				slot = -1
				if aux&0x20 != 0 {
					slot = int(c.nsets * ways)
				}
			}
			st, dirty, lru := State(aux>>3%4), aux&2 != 0, uint64(v)
			err := c.SetSlot(slot, block, st, dirty, lru)
			ferr := f.setSlot(slot, block, st, dirty, lru)
			if (err == nil) != (ferr == nil) {
				return fail("SetSlot(%d, state %d) = %v, flat %v", slot, st, err, ferr)
			}
		case 13, 14:
			st, hit := c.Probe(block)
			fl := f.find(block)
			if hit != (fl != nil) || hit && st != fl.state {
				return fail("probe (%v,%v), flat %+v", st, hit, fl)
			}
		case 15:
			if got, want := walkChunked(c), walkFlat(f); !slices.Equal(got, want) {
				return fail("ForEach walks %v, flat %v", got, want)
			}
		}
		got := [6]uint64{c.Hits, c.Misses, c.Evictions, c.Writebacks, c.Invalidations, uint64(c.Occupancy())}
		want := [6]uint64{f.hits, f.misses, f.evictions, f.writebacks, f.invalidations, uint64(f.valid)}
		if got != want {
			return fail("counters and occupancy %v, flat %v", got, want)
		}
	}
	if got, want := walkChunked(c), walkFlat(f); !slices.Equal(got, want) {
		return nil, fmt.Errorf("final ForEach walks %v, flat %v", got, want)
	}
	return c, nil
}

// TestChunkedMatchesFlat runs seeded random operation streams, over the
// whole cache and confined to its first eighth of sets, on every
// geometry. The streams must reach the paths the differential is for
// (hits, evictions, write-backs, invalidations), and a stream allocates
// exactly the chunks its span covers.
func TestChunkedMatchesFlat(t *testing.T) {
	for _, cfg := range diffGeometries {
		for _, spanShift := range []uint{0, 3} {
			for seed := int64(1); seed <= 3; seed++ {
				ops := make([]byte, 20000*opBytes)
				rand.New(rand.NewSource(seed)).Read(ops)
				c, err := diffOps(cfg, spanShift, ops)
				if err != nil {
					t.Fatalf("%+v, span shift %d, seed %d: %v", cfg, spanShift, seed, err)
				}
				if c.Hits == 0 || c.Evictions == 0 || c.Writebacks == 0 || c.Invalidations == 0 {
					t.Errorf("%+v, span shift %d, seed %d: stream too tame: %d hits, %d evictions, %d writebacks, %d invalidations",
						cfg, spanShift, seed, c.Hits, c.Evictions, c.Writebacks, c.Invalidations)
				}
				span := max(1, c.nsets>>spanShift)
				if got, want := c.ResidentChunks(), int(span+ChunkSets-1)/ChunkSets; got != want {
					t.Errorf("%+v, span shift %d, seed %d: %d chunks allocated for %d sets, want %d",
						cfg, spanShift, seed, got, span, want)
				}
			}
		}
	}
}

// TestProbesAllocateNothing: every operation that only looks for a
// block — and SetSlot of an Invalid line — leaves an empty cache with
// no chunk allocated, and at most the one chunk of a resident block.
func TestProbesAllocateNothing(t *testing.T) {
	for _, cfg := range diffGeometries {
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		probe := func() {
			for b := uint32(0); b < 4*c.nsets; b += 7 {
				c.Find(b)
				c.Lookup(b)
				c.Probe(b)
				c.SetState(b, Shared)
				c.SetState(b, Invalid)
				c.Invalidate(b)
			}
			if err := c.SetSlot(0, 0, Invalid, true, 9); err != nil {
				t.Fatal(err)
			}
			c.ForEach(func(int, uint32, State, bool, uint64) { t.Fatal("ForEach visited a line") })
		}
		probe()
		if n := c.ResidentChunks(); n != 0 {
			t.Errorf("%+v: probes allocated %d chunks", cfg, n)
		}
		if testing.AllocsPerRun(10, probe) != 0 {
			t.Errorf("%+v: probes of an empty cache allocate", cfg)
		}
		last := c.nsets - 1 // in the last, possibly partial, chunk
		c.Insert(last, Shared)
		if _, hit := c.Probe(last); !hit || c.ResidentChunks() != 1 {
			t.Errorf("%+v: insert of block %d: hit %v, %d chunks", cfg, last, hit, c.ResidentChunks())
		}
	}
}

// FuzzCacheOps decodes a geometry, a span and an operation stream from
// the input and runs it against the chunked and the flat cache: they
// must never disagree.
func FuzzCacheOps(f *testing.F) {
	seed := make([]byte, 1+64*opBytes)
	rand.New(rand.NewSource(1)).Read(seed)
	for g := range diffGeometries {
		seed[0] = byte(g)
		f.Add(slices.Clone(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := diffGeometries[int(data[0]&7)%len(diffGeometries)]
		if _, err := diffOps(cfg, uint(data[0]>>3&3), data[1:]); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
	})
}

// clockCache is the LRU scheme per-set stamps replaced: one clock for
// the whole cache, bumped by every hit and fill and never taken back by
// an invalidation. Replacement reads only the order of a set's valid
// lines by last use, which both schemes keep, so the two must evict
// the same victims and hold the same lines.
type clockCache struct {
	lines []line
	nsets uint32
	ways  int
	clock uint64
}

func (o *clockCache) set(block uint32) []line {
	base := int(block%o.nsets) * o.ways
	return o.lines[base : base+o.ways]
}

func (o *clockCache) find(block uint32) *line {
	set := o.set(block)
	for i := range set {
		if set[i].state != Invalid && set[i].block == block {
			return &set[i]
		}
	}
	return nil
}

func (o *clockCache) insert(block uint32, st State) (Victim, bool) {
	o.clock++
	if l := o.find(block); l != nil {
		l.state, l.lru = st, o.clock
		return Victim{}, false
	}
	set := o.set(block)
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
	v, evicted := set[vi], set[vi].state != Invalid
	set[vi] = line{block: block, state: st, lru: o.clock}
	if !evicted {
		return Victim{}, false
	}
	return Victim{Block: v.block, State: v.state, Dirty: v.dirty}, true
}

// sameLRU compares residency (slot, block, state, dirty) and, set by
// set, the order of the valid lines' stamps.
func sameLRU(c *Cache, o *clockCache) error {
	var got, want []slotLine
	c.ForEach(func(slot int, block uint32, st State, dirty bool, lru uint64) {
		got = append(got, slotLine{slot, block, st, dirty, lru})
	})
	for i, l := range o.lines {
		if l.state != Invalid {
			want = append(want, slotLine{i, l.block, l.state, l.dirty, l.lru})
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d lines resident, one-clock oracle %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.slot != w.slot || g.block != w.block || g.st != w.st || g.dirty != w.dirty {
			return fmt.Errorf("line %+v, one-clock oracle %+v", g, w)
		}
		for j := i + 1; j < len(got) && got[j].slot/o.ways == g.slot/o.ways; j++ {
			if (g.lru < got[j].lru) != (w.lru < want[j].lru) || g.lru == got[j].lru {
				return fmt.Errorf("slots %d and %d: stamps %d, %d, one-clock oracle %d, %d",
					g.slot, got[j].slot, g.lru, got[j].lru, w.lru, want[j].lru)
			}
		}
	}
	return nil
}

// TestPerSetLRUMatchesOneClock runs seeded random inserts, hits,
// invalidations and downgrades on a cache and on clockCache, over
// direct-mapped, 4-way and non-power-of-two geometries, with blocks
// crowded into a few sets so that every set used overflows: every
// victim, every hit and the resident lines must agree.
func TestPerSetLRUMatchesOneClock(t *testing.T) {
	for _, cfg := range []Config{
		{SizeBytes: 4 << 10, BlockBytes: 16, Assoc: 1},
		{SizeBytes: 2 << 10, BlockBytes: 16, Assoc: 4},
		{SizeBytes: 3 << 10, BlockBytes: 16, Assoc: 4}, // 48 sets
		{SizeBytes: 3 << 10, BlockBytes: 16, Assoc: 2}, // 96 sets
	} {
		for seed := int64(1); seed <= 3; seed++ {
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			o := &clockCache{lines: make([]line, int(c.nsets)*c.ways), nsets: c.nsets, ways: c.ways}
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 20000; i++ {
				block := uint32(rng.Intn(2*c.ways+1))*c.nsets + uint32(rng.Intn(6))
				fail := func(format string, args ...any) {
					t.Fatalf("%+v, seed %d, op %d on block %d: %s", cfg, seed, i, block, fmt.Sprintf(format, args...))
				}
				switch op := rng.Intn(8); {
				case op < 3:
					st := State(1 + rng.Intn(2))
					v, ev := c.Insert(block, st)
					if ov, oev := o.insert(block, st); v != ov || ev != oev {
						fail("insert evicted %+v (%v), one-clock oracle %+v (%v)", v, ev, ov, oev)
					}
				case op < 6:
					ln, hit := c.Find(block)
					ol := o.find(block)
					if hit != (ol != nil) {
						fail("hit %v, one-clock oracle %v", hit, ol != nil)
					}
					if hit {
						ln.Touch()
						o.clock++
						ol.lru = o.clock
						if ln.State() == Exclusive && op == 5 {
							ln.MarkDirty()
							ol.dirty = true
						}
					}
				case op == 6:
					d, p := c.Invalidate(block)
					if ol := o.find(block); p != (ol != nil) || p && d != ol.dirty {
						fail("invalidate (%v,%v), one-clock oracle %+v", d, p, ol)
					} else if p {
						*ol = line{}
					}
				default:
					c.SetState(block, Shared)
					if ol := o.find(block); ol != nil {
						ol.state, ol.dirty = Shared, false
					}
				}
				if i%500 == 0 {
					if err := sameLRU(c, o); err != nil {
						fail("%v", err)
					}
				}
			}
			if err := sameLRU(c, o); err != nil {
				t.Fatalf("%+v, seed %d, final: %v", cfg, seed, err)
			}
			if c.Evictions == 0 || c.Invalidations == 0 {
				t.Errorf("%+v, seed %d: %d evictions, %d invalidations: stream too tame", cfg, seed, c.Evictions, c.Invalidations)
			}
		}
	}
}

// TestRestoreDerivesSameStamps: a cache rebuilt from its valid lines
// alone (what a snapshot image holds) derives the same LRU stamps as
// the original under the same further operations, because an
// invalidated line keeps no stamp that could still be its set's
// largest.
func TestRestoreDerivesSameStamps(t *testing.T) {
	for _, cfg := range diffGeometries[1:3] {
		for seed := int64(1); seed <= 3; seed++ {
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			op := func(c *Cache, k, block uint32) {
				switch k % 4 {
				case 0, 1:
					c.Insert(block, Shared)
				case 2:
					c.Lookup(block)
				default:
					c.Invalidate(block)
				}
			}
			draw := func() (uint32, uint32) {
				return uint32(rng.Intn(4)), uint32(rng.Intn(2*c.ways+1))*c.nsets + uint32(rng.Intn(4))
			}
			for i := 0; i < 2000; i++ {
				k, block := draw()
				op(c, k, block)
			}
			r, _ := New(cfg)
			c.ForEach(func(slot int, block uint32, st State, dirty bool, lru uint64) {
				if err := r.SetSlot(slot, block, st, dirty, lru); err != nil {
					t.Fatal(err)
				}
			})
			for i := 0; i < 2000; i++ {
				k, block := draw()
				op(c, k, block)
				op(r, k, block)
			}
			if got, want := walkChunked(r), walkChunked(c); !slices.Equal(got, want) {
				t.Fatalf("%+v, seed %d: restored cache walks %v, original %v", cfg, seed, got, want)
			}
		}
	}
}
