// Package proc implements the APRIL processor: an instruction-level
// interpreter over the multithreading engine of package core, in the
// spirit of the paper's own APRIL simulator (Section 7, Figure 4). The
// processor executes one thread at full speed until a remote memory
// request or a failed synchronization attempt raises a trap, at which
// point the software handler (package rts) typically switch-spins to
// the next task frame.
package proc

import (
	"april/internal/isa"
	"april/internal/mem"
)

// Outcome classifies the result of a flavored memory access.
type Outcome uint8

const (
	// OK: the access completed (possibly after a modeled wait).
	OK Outcome = iota
	// SyncFault: the full/empty precondition of a trapping flavor
	// failed (load of empty / store to full). No side effects occurred.
	SyncFault
	// RemoteMiss: the access needs a network transaction. The cache
	// controller has begun the fetch and traps the processor so the
	// handler can context switch; the instruction retries later.
	RemoteMiss
	// Retry: the MHOLD path for wait-on-miss flavors whose data has not
	// arrived yet — hold the processor for Stall cycles and re-execute
	// the instruction without trapping.
	Retry
)

// MemResult is the controller's reply to a data access. Keep it at four
// fields: a struct that small lives in registers, not on the stack.
type MemResult struct {
	Outcome Outcome
	Value   isa.Word // loaded value (valid for completed loads)
	Full    bool     // full/empty state observed before the access
	Stall   int      // extra cycles the processor is held (MHOLD)
}

// FEAccess performs a flavored load/store with full/empty semantics
// against m, the shared functional core of every memory port: check
// the synchronization precondition and perform the access (one step in
// mem: a sync fault stores nothing), then apply the reset/set side
// effect.
func FEAccess(m *mem.Memory, addr uint32, f isa.MemFlavor, store bool, value isa.Word) (MemResult, error) {
	prev, full, ok, err := m.AccessSync(addr, store, f.TrapOnSync, value)
	if err != nil {
		return MemResult{}, err
	}
	if !ok {
		// Load of empty (store==false, full==false) or store to full.
		return MemResult{Outcome: SyncFault, Full: full}, nil
	}
	switch {
	case !store && f.ResetFE:
		m.MustSetFE(addr, false)
	case store && f.SetFE:
		m.MustSetFE(addr, true)
	}
	return MemResult{Outcome: OK, Value: prev, Full: full}, nil
}

// MemPort is the interface between the processor and its cache /
// directory controller. Implementations: PerfectPort (no memory
// hierarchy, the configuration the paper uses for the Table 3
// multiprocessor runs) and the cache+directory+network stack in
// package sim.
type MemPort interface {
	// Access performs a load (store=false) or store with the full/empty
	// semantics of flavor f. value is the store data.
	Access(addr uint32, f isa.MemFlavor, store bool, value isa.Word) (MemResult, error)

	// Flush writes back and invalidates the cache line holding addr
	// (the FLUSH out-of-band instruction). It returns the stall cycles.
	Flush(addr uint32) int
}

// IOPort models the memory-mapped I/O space reached by LDIO/STIO:
// the fence counter, interprocessor interrupts, and block transfers
// (Section 3.4).
type IOPort interface {
	LoadIO(addr uint32) (isa.Word, int, error)
	StoreIO(addr uint32, w isa.Word) (int, error)
}

// PerfectPort is a memory port with no cache and no latency: every
// access completes in the base instruction time. The paper's
// multiprocessor measurements for Table 3 "used the processor simulator
// without the cache and network simulators, in effect simulating a
// shared-memory machine with no memory latency"; this port is that
// configuration. Full/empty semantics are still exact.
type PerfectPort struct {
	Mem *mem.Memory
}

// Access implements MemPort. The memory's watch sees the access first
// (FEAccess's full/empty side effect goes through SetFE, which it
// watches itself).
func (p *PerfectPort) Access(addr uint32, f isa.MemFlavor, store bool, value isa.Word) (MemResult, error) {
	p.Mem.Watch(addr, store)
	return FEAccess(p.Mem, addr, f, store, value)
}

// Flush implements MemPort; with no cache there is nothing to do.
func (p *PerfectPort) Flush(addr uint32) int { return 0 }
