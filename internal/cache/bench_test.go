package cache

import (
	"math/rand"
	"testing"
)

// Per-layer microbenchmarks (ROADMAP item 1a): what one cache hit, one
// write hit and one refused probe cost the host, on the Table 4 cache
// with every line resident and blocks drawn uniformly. `make bench` and
// CI run them at -benchtime 1x so they cannot rot.

var benchSink uint64

func benchCache(b *testing.B, st State) (*Cache, []uint32) {
	c, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	resident := c.cfg.SizeBytes / c.cfg.BlockBytes
	for blk := uint32(0); blk < resident; blk++ {
		c.Insert(blk, st)
	}
	r := rand.New(rand.NewSource(1))
	blocks := make([]uint32, 1<<14)
	for i := range blocks {
		blocks[i] = uint32(r.Intn(int(resident)))
	}
	return c, blocks
}

// BenchmarkHit is a read hit: one probe, then the LRU touch and the
// hit count through the handle.
func BenchmarkHit(b *testing.B) {
	c, blocks := benchCache(b, Shared)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ln, ok := c.Find(blocks[i&(len(blocks)-1)])
		if !ok {
			b.Fatal("resident block missed")
		}
		ln.Touch()
		benchSink += uint64(ln.State())
	}
}

// BenchmarkHitWrite is a write hit on an exclusive line: the permission
// test, the touch and the dirty mark, still one probe.
func BenchmarkHitWrite(b *testing.B) {
	c, blocks := benchCache(b, Exclusive)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ln, ok := c.Find(blocks[i&(len(blocks)-1)])
		if !ok || ln.State() != Exclusive {
			b.Fatal("resident exclusive block refused")
		}
		ln.Touch()
		ln.MarkDirty()
	}
}

// BenchmarkFindMiss is the probe that finds nothing and walks away: a
// full scan of the set, no state touched.
func BenchmarkFindMiss(b *testing.B) {
	c, blocks := benchCache(b, Shared)
	resident := c.cfg.SizeBytes / c.cfg.BlockBytes
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Find(resident + blocks[i&(len(blocks)-1)]); ok {
			b.Fatal("absent block found")
		}
	}
	if c.Misses != 0 {
		b.Fatalf("uncommitted probes counted %d misses", c.Misses)
	}
}
