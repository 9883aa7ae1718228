package main

import (
	"april/internal/bench"
	"april/internal/mult"
)

var multDrives = []drive{
	// Mean cost of compiling one of the four paper sources in one of the
	// three Table 3 modes (Encore software checks, APRIL eager, APRIL
	// lazy), into a fresh static heap each time.
	{metric: "mult.compile_us", fn: func(e *driveEnv) (float64, error) {
		modes := []mult.Mode{{}, {HardwareFutures: true}, {HardwareFutures: true, LazyFutures: true}}
		var srcs []string
		for _, name := range bench.Names {
			srcs = append(srcs, e.sz.grid.Source(name))
		}
		var firstErr error
		ns := e.perOp(func(n int) {
			for i := 0; i < n; i++ {
				for _, src := range srcs {
					for _, mode := range modes {
						prog, err := mult.Compile(src, mode, freshHeap())
						if err != nil && firstErr == nil {
							firstErr = err
						}
						if prog != nil {
							sink += uint64(len(prog.Code))
						}
					}
				}
			}
		})
		return ns / 1e3 / float64(len(srcs)*len(modes)), firstErr
	}},
}
