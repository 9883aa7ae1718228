package main

import "april/internal/cache"

var cacheDrives = []drive{
	// Lookup of a resident block in the Table 4 cache (64 KB, 4-way),
	// blocks drawn uniformly from the resident set.
	{metric: "cache.lookup_hit_ns", fn: func(e *driveEnv) (float64, error) {
		c, err := cache.New(cache.DefaultConfig())
		if err != nil {
			return 0, err
		}
		resident := c.Config().SizeBytes / c.Config().BlockBytes
		for b := uint32(0); b < resident; b++ {
			c.Insert(b, cache.Shared)
		}
		r := newRand(e.seed)
		blocks := make([]uint32, 1<<14)
		for i := range blocks {
			blocks[i] = uint32(r.Intn(int(resident)))
		}
		return e.perOp(func(n int) {
			for i := 0; i < n; i++ {
				st, _ := c.Lookup(blocks[i&(len(blocks)-1)])
				sink += uint64(st)
			}
		}), nil
	}},
	// Insert into a full cache: every insert evicts the set's LRU line
	// (the streaming-miss path).
	{metric: "cache.insert_evict_ns", fn: func(e *driveEnv) (float64, error) {
		c, err := cache.New(cache.DefaultConfig())
		if err != nil {
			return 0, err
		}
		next := uint32(0)
		for ; next < c.Config().SizeBytes/c.Config().BlockBytes; next++ {
			c.Insert(next, cache.Shared)
		}
		return e.perOp(func(n int) {
			for i := 0; i < n; i++ {
				c.Insert(next, cache.Shared)
				next++
			}
		}), nil
	}},
}
