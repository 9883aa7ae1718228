package proc

import (
	"april/internal/core"
	"april/internal/isa"
)

// Epoch execution, processor side. The machine's epoch engine (sim's
// epochWindow) proves a multi-cycle safe horizon for a whole group of
// nodes — no network delivery, IPI, wake, sampler boundary, or watchdog
// watermark falls inside the window — and then advances every node
// through it in lockstep, one EpochStep per node per simulated cycle,
// without per-cycle fabric ticks. EpochStep may therefore
// execute only ops whose effects are provably confined to this
// processor for the cycle: the trap-free superinstruction handlers
// (fusedOp) plus — on a machine with a real memory system — plain
// flavored accesses that hit the local cache with the required
// permission, which the coherence protocol's exclusive-copy guarantee
// confines to words no other node may validly observe this cycle.
// Anything else (traps, syscalls, misses, flushes, I/O, halts, IPIs,
// strict-future operands, full/empty flavors) makes EpochStep refuse
// with no state touched; the machine then falls back to the per-op
// path at that exact cycle, preserving reference interleaving.

// EpochPort is implemented by memory ports that can complete a plain
// flavored access as a clock-free cache hit. It is the narrow slice of
// the ALEWIFE cache controller the epoch engine (and the per-op
// superinstruction path) may drive without a fabric clock: a hit with
// sufficient permission reads or writes the coherence-protected word
// and costs one cycle with zero stall, exactly like the full
// MemPort.Access hit path.
type EpochPort interface {
	// EpochHit completes a plain (no full/empty side effects) load or
	// store iff it is a cache hit with the required permission.
	// ok=false means the access was not a provable hit and NO state was
	// touched; the caller re-executes through the full port. On ok, prev
	// is the word's prior value (the load result) and full its observed
	// full/empty bit, mirroring FEAccess.
	EpochHit(addr uint32, store bool, value isa.Word) (prev isa.Word, full bool, ok bool)
}

// SetEpochPort installs (or, with nil, removes) the clock-free
// cache-hit port. Like the compiled tier it extends, the port changes
// host-side dispatch only: every access it completes is bit-identical
// to the same access through Mem.Access.
func (p *Processor) SetEpochPort(ep EpochPort) { p.epochPort = ep }

// epochMem is fusedMem's counterpart for a machine with a real memory
// system: a plain-flavored load/store that hits the local cache with
// sufficient permission. It mirrors microMem + the controller's hit
// path exactly for the case it handles; any special condition (flavor
// side effects, future-tagged address operands, misalignment, a miss,
// an upgrade) returns false with no state touched, and the caller
// re-executes through the full path. On a hit the op retired at cost
// 1; Instructions/UsefulCycles accounting is the caller's (fusedOp
// contract).
func (p *Processor) epochMem(f *core.Frame, u *isa.Micro) bool {
	ep := p.epochPort
	if ep == nil {
		return false
	}
	fl := u.Flavor
	if fl.TrapOnSync || fl.SetFE || fl.ResetFE {
		return false
	}
	e := p.Engine
	base := e.Reg(u.Rs1)
	var index isa.Word
	if !u.UseImm {
		index = e.Reg(u.Rs2)
	}
	if f.PSR&core.PSRFutureTrap != 0 && (isa.IsFuture(base) || isa.IsFuture(index)) {
		return false
	}
	ea := uint32(int32(uint32(base)) + int32(uint32(index)) + u.Imm)
	if ea%4 != 0 {
		return false
	}
	var value isa.Word
	if u.Store {
		value = e.Reg(u.Rd)
	}
	prev, full, ok := ep.EpochHit(ea, u.Store, value)
	if !ok {
		return false
	}
	f.PSR = f.PSR.WithFull(full)
	if u.Store {
		p.Stats.StoreCount++
	} else {
		e.SetReg(u.Rd, prev)
		p.Stats.LoadCount++
	}
	p.advance(f)
	return true
}

// EpochStep executes the processor's next op iff it is epoch-safe: a
// running thread at an in-bounds PC whose op the superinstruction
// handlers complete without trapping, erroring, or reaching outside
// the node. It returns false with NO state touched otherwise — the
// machine then stops the epoch window before this cycle and resumes
// per-op stepping, so the refused op executes at its exact reference
// cycle through Step. On success the op retired at cost 1 with the
// same state transformation, stats, and dispatch accounting (Kinds) as
// a plain Step.
func (p *Processor) EpochStep() bool {
	if p.Halted || p.ipiHead < len(p.pendingIPI) {
		return false
	}
	f := p.Engine.Active()
	if f.ThreadID < 0 {
		return false
	}
	m := p.micro
	if p.blocks == nil || uint64(f.PC) >= uint64(len(m)) {
		return false
	}
	u := &m[f.PC]
	if !p.fusedOp(f, u) {
		return false
	}
	// Dispatch accounting after the fact: a refused op must leave Kinds
	// untouched (Step will count its own dispatch), while a completed op
	// counts exactly once, keeping the counters tier-invariant.
	p.Kinds[u.Kind]++
	p.EpochOps++
	p.Stats.Instructions++
	p.Stats.UsefulCycles++
	return true
}
