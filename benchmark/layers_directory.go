package main

import "april/internal/directory"

const dirDriveBlocks = 1 << 16

// sharersDrive prices one sharer-set round — add a reader, list the
// other members (the invalidation fan-out), drop it — with node ids
// drawn from [lo, hi).
func sharersDrive(lo, hi int) func(e *driveEnv) (float64, error) {
	return func(e *driveEnv) (float64, error) {
		r := newRand(e.seed)
		ids := make([]int, 1<<10)
		for i := range ids {
			ids[i] = lo + r.Intn(hi-lo)
		}
		var s directory.Sharers
		for _, id := range ids[:8] {
			s.Add(id)
		}
		var buf []int
		return e.perOp(func(n int) {
			for i := 0; i < n; i++ {
				id := ids[i&(len(ids)-1)]
				s.Add(id)
				buf = s.AppendMembers(buf[:0], id)
				s.Remove(id)
				sink += uint64(len(buf))
			}
		}), nil
	}
}

var directoryDrives = []drive{
	// Entry of a block the home already tracks, blocks uniform over 64K
	// entries.
	{metric: "directory.entry_hit_ns", fn: func(e *driveEnv) (float64, error) {
		d := directory.New()
		for b := uint32(0); b < dirDriveBlocks; b++ {
			d.Entry(b)
		}
		r := newRand(e.seed)
		blocks := make([]uint32, 1<<14)
		for i := range blocks {
			blocks[i] = uint32(r.Intn(dirDriveBlocks))
		}
		return e.perOp(func(n int) {
			for i := 0; i < n; i++ {
				sink += uint64(d.Entry(blocks[i&(len(blocks)-1)]).State)
			}
		}), nil
	}},
	// Entry of a block never seen: slot claim plus amortised table
	// growth from empty to 64K entries.
	{metric: "directory.entry_new_ns", fn: func(e *driveEnv) (float64, error) {
		var d *directory.Directory
		return e.perOp(func(n int) {
			for i := 0; i < n; i++ {
				if i%dirDriveBlocks == 0 {
					d = directory.New()
				}
				sink += uint64(d.Entry(uint32(i % dirDriveBlocks)).State)
			}
		}), nil
	}},
	{metric: "directory.sharers_ns", fn: sharersDrive(0, 64)},
	// Node ids above 63 spill out of the inline word: the path a
	// 1000-node machine takes.
	{metric: "directory.sharers_overflow_ns", fn: sharersDrive(64, 1000)},
}
