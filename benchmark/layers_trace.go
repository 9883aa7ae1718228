package main

import (
	"io"

	"april/internal/obs"
	"april/internal/trace"
)

var traceDrives = []drive{
	// One event into a per-node ring (what every traced layer pays per
	// event when the simulator's own tracer is armed).
	{metric: "trace.emit_ns", fn: func(e *driveEnv) (float64, error) {
		var clock uint64
		nodes := e.sz.midNodes
		t := trace.New(nodes, 0, &clock)
		return e.perOp(func(n int) {
			for i := 0; i < n; i++ {
				clock++
				t.Emit(i%nodes, trace.KTrap, int32(i), 0, 0, 0)
			}
		}), nil
	}},
	// One Snapshot of a 1000-node machine's counter registry: the cost
	// of each window boundary in the traced runs, and of each scrape.
	{metric: "trace.registry_snapshot_us_n1000", fn: func(e *driveEnv) (float64, error) {
		m, err := alewifeMachine(e.sz.bigNodes)
		if err != nil {
			return 0, err
		}
		reg := m.CounterRegistry()
		ns := e.perOp(func(n int) {
			for i := 0; i < n; i++ {
				sink += uint64(len(reg.Snapshot()))
			}
		})
		return ns / 1e3, nil
	}},
	{metric: "obs.prometheus_write_us_n64", fn: func(e *driveEnv) (float64, error) {
		m, err := alewifeMachine(e.sz.midNodes)
		if err != nil {
			return 0, err
		}
		snap := m.CounterRegistry().Snapshot()
		var firstErr error
		ns := e.perOp(func(n int) {
			for i := 0; i < n; i++ {
				if err := obs.WritePrometheus(io.Discard, snap); err != nil && firstErr == nil {
					firstErr = err
				}
			}
		})
		return ns / 1e3, firstErr
	}},
}
