package cache

import "testing"

// The cache hit path runs on every simulated memory access; it must
// not allocate. (Insert allocates a chunk of lines the first time one
// lands in it; a probe never does, see TestProbesAllocateNothing.)
func TestHitPathAllocFree(t *testing.T) {
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, evicted := c.Insert(7, Exclusive); evicted {
		t.Fatal("unexpected eviction in empty cache")
	}
	hit := func() {
		ln, ok := c.Find(7)
		if !ok {
			t.Fatal("find missed a resident block")
		}
		ln.Touch()
		ln.MarkDirty()
		if !ln.Dirty() {
			t.Fatal("block not dirty after MarkDirty")
		}
	}
	if n := testing.AllocsPerRun(1000, hit); n != 0 {
		t.Errorf("cache hit allocates %v/op, want 0", n)
	}
}
