package main

import (
	"time"

	"april/internal/core"
	"april/internal/mult"
	"april/internal/rts"
	"april/internal/sim"
)

// seqFibMachine is a one-processor perfect-memory machine loaded with
// the sequential ("T seq") fib image: no futures, no traps but the
// exit, so what runs is the processor and nothing else.
func seqFibMachine(sz *sizes) (*sim.Machine, error) {
	m, err := sim.New(sim.Config{Nodes: 1, Profile: rts.APRIL})
	if err != nil {
		return nil, err
	}
	prog, err := mult.Compile(sz.grid.Source("fib"), mult.Mode{HardwareFutures: true, Sequential: true}, m.StaticHeap())
	if err != nil {
		return nil, err
	}
	return m, m.Load(prog)
}

var procDrives = []drive{
	// One Processor.Step on a PerfectPort: the per-instruction path the
	// machine loop takes when it cannot run a fused window.
	{metric: "proc.step_ns", fn: func(e *driveEnv) (float64, error) {
		return e.perUnit(func() (uint64, time.Duration, error) {
			m, err := seqFibMachine(e.sz)
			if err != nil {
				return 0, 0, err
			}
			p := m.Nodes[0].Proc
			var steps uint64
			t0 := time.Now()
			for !m.Sched.MainDone {
				if _, err := p.Step(); err != nil {
					return 0, 0, err
				}
				steps++
			}
			return steps, time.Since(t0), nil
		})
	}},
	// The same image through Machine.Run: the compiled tier's fused
	// blocks, per retired instruction.
	{metric: "proc.fused_ns_per_inst", fn: func(e *driveEnv) (float64, error) {
		return e.perUnit(func() (uint64, time.Duration, error) {
			m, err := seqFibMachine(e.sz)
			if err != nil {
				return 0, 0, err
			}
			t0 := time.Now()
			_, err = m.Run()
			d := time.Since(t0)
			return m.TotalStats().Instructions, d, err
		})
	}},
	{metric: "core.switch_ns", fn: func(e *driveEnv) (float64, error) {
		eng := core.NewEngine(rts.APRIL.Frames, rts.APRIL.SwitchCycles)
		return e.perOp(func(n int) {
			for i := 0; i < n; i++ {
				sink += uint64(eng.SwitchNext())
			}
		}), nil
	}},
}
