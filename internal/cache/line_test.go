package cache

import (
	"math/rand"
	"testing"
)

// markDirty is the Cache.MarkDirty the hit path used before the line
// handle: its own scan of the set. The tests keep it as the third call
// of the old three-call hit (Probe, Lookup, MarkDirty), the oracle the
// handle is compared against.
func markDirty(c *Cache, block uint32) {
	if l, _ := c.find(block); l != nil {
		l.dirty = true
	}
}

func dirty(c *Cache, block uint32) bool {
	ln, ok := c.Find(block)
	return ok && ln.Dirty()
}

type slot struct {
	block  uint32
	st     State
	dirty  bool
	locked bool
	lru    uint64
}

// image is everything a probe could have disturbed: every slot (an
// unallocated chunk's read as zero lines) and the counters.
func image(c *Cache) ([]slot, [5]uint64) {
	var slots []slot
	for i := 0; i < int(c.nsets)*c.ways; i++ {
		var l line
		if ch := c.chunks[i/(ChunkSets*c.ways)]; ch != nil {
			l = ch[i%(ChunkSets*c.ways)]
		}
		slots = append(slots, slot{l.block, l.state, l.dirty, l.locked, l.lru})
	}
	return slots, [5]uint64{c.Hits, c.Misses, c.Evictions, c.Writebacks, c.Invalidations}
}

func sameImage(t *testing.T, what string, c, want *Cache) {
	t.Helper()
	cs, cn := image(c)
	ws, wn := image(want)
	if cn != wn {
		t.Fatalf("%s: counters %v, want %v", what, cn, wn)
	}
	for i := range cs {
		if cs[i] != ws[i] {
			t.Fatalf("%s: slot %d is %+v, want %+v", what, i, cs[i], ws[i])
		}
	}
}

// TestFindWalkAwayTouchesNothing pins the refusal half of the handle
// contract: a Find the caller does not commit — hit or miss, whatever
// it read through the handle — leaves Hits, Misses, the LRU order and
// the dirty bits exactly as they were.
func TestFindWalkAwayTouchesNothing(t *testing.T) {
	c := newCache(t, 256, 16, 2)
	twin := newCache(t, 256, 16, 2)
	for _, x := range []*Cache{c, twin} {
		x.Insert(0, Exclusive)
		x.Insert(8, Shared)
		x.Lookup(0) // 8 is now the set's LRU way
	}
	ln, ok := c.Find(8)
	if !ok || ln.State() != Shared || ln.Locked() {
		t.Fatalf("Find(8) = %v, state %v, locked %v", ok, ln.State(), ln.Locked())
	}
	if _, ok := c.Find(0); !ok {
		t.Fatal("Find(0) missed a resident block")
	}
	if _, ok := c.Find(16); ok {
		t.Fatal("Find(16) hit a block never inserted")
	}
	sameImage(t, "after three uncommitted probes", c, twin)
	if v, evicted := c.Insert(16, Shared); !evicted || v.Block != 8 {
		t.Errorf("victim after uncommitted probes = %+v, want block 8", v)
	}
}

// TestLineCommitMatchesThreeCallHit drives two caches through the same
// random sequence of inserts, hits, refused hits, invalidations and
// downgrades: one through the handle (Find, then Touch and MarkDirty,
// or walk away), the other through the three calls the controller's
// hit paths used to make (Probe to decide, Lookup to count and touch,
// MarkDirty to write). Victims, counters, LRU stamps and dirty bits
// must agree after every step.
func TestLineCommitMatchesThreeCallHit(t *testing.T) {
	for _, g := range []struct {
		size  uint32
		assoc int
	}{{256, 2}, {192, 2}, {512, 4}} {
		c := newCache(t, g.size, 16, g.assoc)
		old := newCache(t, g.size, 16, g.assoc)
		r := rand.New(rand.NewSource(int64(g.size)))
		for step := 0; step < 20000; step++ {
			b := uint32(r.Intn(48))
			switch op := r.Intn(10); {
			case op < 2:
				st := State(1 + r.Intn(2))
				v, ev := c.Insert(b, st)
				ov, oev := old.Insert(b, st)
				if v != ov || ev != oev {
					t.Fatalf("step %d: insert %d evicted %+v (%v), old path %+v (%v)", step, b, v, ev, ov, oev)
				}
			case op < 8:
				// A hit attempt: write needs Exclusive; a refused one
				// (miss or upgrade) touches nothing on either path.
				write := r.Intn(2) == 0
				ln, ok := c.Find(b)
				if ok && (!write || ln.State() == Exclusive) {
					ln.Touch()
					if write {
						ln.MarkDirty()
					}
				}
				if st, ok := old.Probe(b); ok && (!write || st == Exclusive) {
					old.Lookup(b)
					if write {
						markDirty(old, b)
					}
				}
			case op < 9:
				d, p := c.Invalidate(b)
				od, oldp := old.Invalidate(b)
				if d != od || p != oldp {
					t.Fatalf("step %d: invalidate %d = (%v,%v), old path (%v,%v)", step, b, d, p, od, oldp)
				}
			default:
				if c.SetState(b, Shared) != old.SetState(b, Shared) {
					t.Fatalf("step %d: downgrade %d disagrees", step, b)
				}
			}
			sameImage(t, "after a step", c, old)
		}
		if c.Hits == 0 || c.Evictions == 0 || c.Writebacks == 0 || c.Invalidations == 0 {
			t.Errorf("sequence too tame: %d hits, %d evictions, %d writebacks, %d invalidations",
				c.Hits, c.Evictions, c.Writebacks, c.Invalidations)
		}
	}
}

// TestLookupIsFindThenTouch: the per-call API the benchmark drives is
// the handle committed unconditionally, plus the miss count.
func TestLookupIsFindThenTouch(t *testing.T) {
	c := newCache(t, 256, 16, 2)
	twin := newCache(t, 256, 16, 2)
	c.Insert(3, Shared)
	twin.Insert(3, Shared)
	if st, ok := c.Lookup(3); !ok || st != Shared {
		t.Fatalf("Lookup(3) = %v, %v", st, ok)
	}
	ln, _ := twin.Find(3)
	ln.Touch()
	c.Lookup(4)
	twin.Misses++
	sameImage(t, "lookup hit and miss", c, twin)
}

// TestLockFlagFallsWithTheLine: the interlock flag is the line's, so
// every way a line leaves the cache clears it, and a block that comes
// back starts without it. A downgrade keeps the line and the flag.
func TestLockFlagFallsWithTheLine(t *testing.T) {
	locked := func(c *Cache, b uint32) bool {
		ln, ok := c.Find(b)
		return ok && ln.Locked()
	}
	lock := func(c *Cache, b uint32) {
		ln, ok := c.Find(b)
		if !ok {
			t.Fatalf("block %d not resident", b)
		}
		ln.SetLocked(true)
	}
	c := newCache(t, 256, 16, 2)
	c.Insert(0, Exclusive)
	lock(c, 0)
	c.SetState(0, Shared)
	if !locked(c, 0) {
		t.Error("downgrade dropped the flag")
	}
	c.Insert(0, Exclusive) // upgrade in place
	if !locked(c, 0) {
		t.Error("in-place upgrade dropped the flag")
	}
	c.Invalidate(0)
	c.Insert(0, Shared)
	if locked(c, 0) {
		t.Error("flag survived Invalidate")
	}
	lock(c, 0)
	c.SetState(0, Invalid)
	c.Insert(0, Shared)
	if locked(c, 0) {
		t.Error("flag survived SetState(Invalid)")
	}
	lock(c, 0)
	c.Insert(8, Shared)
	c.Insert(16, Shared) // evicts 0, the LRU way
	c.Insert(0, Shared)
	if locked(c, 0) || locked(c, 16) {
		t.Error("flag survived eviction")
	}
}
