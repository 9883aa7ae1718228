package main

import (
	"april/internal/mult"
)

var isaDrives = []drive{
	// Predecoding the fib image into the flat micro-op table, per
	// instruction. (isa.blocks_translated is a count from the traced
	// run.)
	{metric: "isa.predecode_ns_per_inst", fn: func(e *driveEnv) (float64, error) {
		prog, err := mult.Compile(e.sz.grid.Source("fib"), mult.Mode{HardwareFutures: true}, freshHeap())
		if err != nil {
			return 0, err
		}
		ns := e.perOp(func(n int) {
			for i := 0; i < n; i++ {
				sink += uint64(len(prog.Predecode()))
			}
		})
		return ns / float64(len(prog.Code)), nil
	}},
}
