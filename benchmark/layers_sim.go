package main

import (
	"time"

	"april/internal/bench"
	"april/internal/mult"
	"april/internal/rts"
	"april/internal/sim"
)

// alewifeMachine is a default ALEWIFE machine. Every node takes a
// 256 KiB heap chunk at construction, so past a few hundred nodes the
// default 256 MiB of (demand-paged) address space is not enough.
func alewifeMachine(nodes int) (*sim.Machine, error) {
	var memBytes uint32
	if nodes > 256 {
		memBytes = 1 << 31
	}
	return sim.New(sim.Config{Nodes: nodes, Profile: rts.APRIL, MemoryBytes: memBytes, Alewife: &sim.AlewifeConfig{}})
}

// newMachineDrive prices sim.New of a default ALEWIFE machine, in ms.
func newMachineDrive(big bool) func(e *driveEnv) (float64, error) {
	return func(e *driveEnv) (float64, error) {
		var firstErr error
		ns := e.perOp(func(n int) {
			for i := 0; i < n; i++ {
				m, err := alewifeMachine(e.sz.driveNodes(big))
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if m != nil {
					sink += uint64(len(m.Nodes))
				}
			}
		})
		return ns / 1e6, firstErr
	}
}

var simDrives = []drive{
	// The sequential fib image on a one-node ALEWIFE machine, per retired
	// instruction: the processor plus everything the full memory system
	// adds to a node that never leaves its own cache — controller port,
	// per-cycle fabric tick, run loop. Against proc.fused_ns_per_inst
	// (the same image on perfect memory) it prices sim's glue per
	// instruction before any multi-node effect.
	{metric: "sim.alewife1_ns_per_inst", fn: func(e *driveEnv) (float64, error) {
		src := e.sz.grid.Source("fib")
		return e.perUnit(func() (uint64, time.Duration, error) {
			m, err := alewifeMachine(1)
			if err != nil {
				return 0, 0, err
			}
			prog, err := mult.Compile(src, mult.Mode{HardwareFutures: true, Sequential: true}, m.StaticHeap())
			if err != nil {
				return 0, 0, err
			}
			if err := m.Load(prog); err != nil {
				return 0, 0, err
			}
			t0 := time.Now()
			_, err = m.Run()
			d := time.Since(t0)
			return m.TotalStats().Instructions, d, err
		})
	}},
	{metric: "sim.new_ms_n64", fn: newMachineDrive(false)},
	{metric: "sim.new_ms_n1000", fn: newMachineDrive(true)},
	// A futures-free program on a 1000-node ALEWIFE machine: one node
	// works, 999 idle. Host ns per simulated cycle of everything that
	// is not useful work: run loop, wake queue, idle polls, empty
	// fabric.
	{metric: "sim.idle_machine_ns_per_cycle_n1000", fn: func(e *driveEnv) (float64, error) {
		src := bench.FibSource(12)
		return e.perUnit(func() (uint64, time.Duration, error) {
			m, err := alewifeMachine(e.sz.bigNodes)
			if err != nil {
				return 0, 0, err
			}
			prog, err := mult.Compile(src, mult.Mode{HardwareFutures: true, Sequential: true}, m.StaticHeap())
			if err != nil {
				return 0, 0, err
			}
			if err := m.Load(prog); err != nil {
				return 0, 0, err
			}
			t0 := time.Now()
			res, err := m.Run()
			return res.Cycles, time.Since(t0), err
		})
	}},
}
