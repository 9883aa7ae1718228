package proc

// Epoch execution, processor side. The machine's epoch engine (sim's
// epochWindow) proves a multi-cycle safe horizon for a whole group of
// nodes on perfect memory — no wake, IPI, sampler boundary, or
// watchdog watermark falls inside the window — and then advances every
// node through it in lockstep, one EpochStep per node per simulated
// cycle. EpochStep may therefore execute only ops whose effects are
// provably confined to this processor for the cycle: the trap-free
// superinstruction handlers (fusedOp), whose only memory op is a plain
// access to perfect memory. Anything else (traps, syscalls, flushes,
// I/O, halts, IPIs, strict-future operands, full/empty flavors) makes
// EpochStep refuse with no state touched; the machine then falls back
// to the per-op path at that exact cycle, preserving reference
// interleaving.

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
