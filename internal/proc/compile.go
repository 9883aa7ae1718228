package proc

// The compiled execution tier: profile-guided basic-block
// superinstructions over the predecoded image (see isa.BlockSet for
// discovery/translation). The machine calls StepFused instead of Step
// when it can prove the processor is *isolated* for a window of cycles
// — no other node steps and no network event fires — so executing many
// instructions back-to-back is observably identical to interleaving
// them with the machine loop. Within the window, translated blocks run
// with the per-instruction fetch, PC-bounds, halt and IPI checks
// hoisted to block entry; everything else (traps, syscalls, cold PCs)
// still executes through the reference opcode switch, so the tier is a
// pure scheduling change plus the superinstruction handlers (fusedOp).
//
// Exactness contract (held by the differential matrices in
// internal/sim and the per-op oracle in fused_test.go): every op
// observes the same machine state, trap payloads, stats increments,
// and — via the threaded clock — the same timestamps as the opcode
// switch; the fused loop stops at anything whose effect could reach
// outside the processor before the window ends (run termination, IPI
// self-posts, halts, cache/IO traffic on non-perfect memory).

import (
	"april/internal/core"
	"april/internal/isa"
	"april/internal/mem"
)

// memTouchKinds marks ops that reach the memory or I/O port. On a
// machine with a cache/network fabric these must not execute inside a
// fused window (a miss would stamp network messages mid-window), so
// the fused loop stops before them unless the port is perfect memory.
var memTouchKinds = [isa.NumMicroKinds]bool{
	isa.MMem: true, isa.MFlush: true, isa.MLdio: true, isa.MStio: true,
}

// frameSwitchKinds marks the ops that move the engine's frame pointer
// (Engine.IncFP/DecFP/SetFP). These are the only retiring ops after
// which the active-frame pointer cached by the fused block loop can be
// stale; every other retiring op leaves the frame in place with PC
// advanced past the op.
var frameSwitchKinds = [isa.NumMicroKinds]bool{
	isa.MIncFP: true, isa.MDecFP: true, isa.MStFP: true,
}

// SetCompile arms (or, with a nil set, disarms) the fused-block tier:
// Step then fetches from the set's predecoded image and tries the
// superinstruction handlers before the opcode switch. done is the
// machine's run-termination flag ("main returned"): the fused loop
// re-checks it after every op so it never executes past the cycle
// where the machine would have stopped. When the memory port is
// a PerfectPort the raw memory is captured for the plain-access fast
// path and memory/IO ops become fusable.
func (p *Processor) SetCompile(bs *isa.BlockSet, done *bool) {
	p.blocks = bs
	p.done = done
	p.micro, p.perfMem = nil, nil
	if bs == nil {
		return
	}
	p.micro = bs.Micro
	if pp, ok := p.Mem.(*PerfectPort); ok {
		p.perfMem = pp.Mem
	}
}

// Blocks exposes the installed translation set (telemetry and tests).
func (p *Processor) Blocks() *isa.BlockSet { return p.blocks }

// StepFused executes as many instructions as fit in budget cycles,
// assuming the caller proved the processor isolated for that window.
// clock points at the machine's cycle counter: it is advanced to each
// op's start cycle before the op runs (trap handlers and tracers read
// it) and restored before returning.
//
// Returns:
//   - ran: at least one op was dispatched. When false the caller must
//     fall back to a normal Step (the state was not touched).
//   - consumed: total cycles executed; the caller treats the window
//     like one multi-cycle Step.
//   - lastRet: offset (from window start) of the last op that retired
//     an instruction, -1 if none — the machine's progress watermark.
//   - doneAt: offset of the op that set the done flag, -1 otherwise.
//     The machine must then account cycles exactly as if that op had
//     been the window's only step at offset doneAt.
//   - err: an execution error; consumed then counts only the cycles
//     before the erroring op, so the machine reports the same cycle
//     the per-op loop would have.
func (p *Processor) StepFused(budget uint64, clock *uint64) (ran bool, consumed uint64, lastRet, doneAt int64, err error) {
	base := *clock
	// Ops on the inline path (fusedOp hits)
	// accumulate retirement stats in locals; the flush keeps Stats exact
	// on every exit, including the error returns.
	var nret, fops uint64
	defer func() {
		*clock = base
		p.Stats.Instructions += nret
		p.Stats.UsefulCycles += nret
		p.FusedOps += fops
	}()
	lastRet, doneAt = -1, -1
	bs := p.blocks
	micro := p.micro
	plen := uint64(len(micro))
	e := p.Engine
	memOK := p.perfMem != nil
	var t uint64
outer:
	for t < budget {
		if p.Halted || p.ipiHead < len(p.pendingIPI) {
			break
		}
		f := e.Active()
		if f.ThreadID < 0 {
			break
		}
		pc := f.PC
		if uint64(pc) >= plen {
			break // Step reports the exact bounds error
		}
		if n := bs.Enter(pc); n > 0 {
			// Translated block: fetch and bounds checks are hoisted —
			// ops are micro[pc:pc+n] by construction. The inner loop
			// splits on retirement: an op that retired provably did not
			// trap, so no handler ran — Halted, the IPI queue, and the
			// done flag are unchanged, and the frame is unchanged too
			// unless the op itself switches frames. Those checks run
			// only on the trap/spin path.
			end := pc + uint32(n)
			q := pc
			ran = true
			for t < budget {
				u := &micro[q]
				p.Kinds[u.Kind]++
				fops++
				if p.fusedOp(f, u) {
					// Inline-path hit: retired, cost 1, no trap, no
					// frame switch, PC updated by the op itself.
					lastRet = int64(t)
					t++
					nret++
					q++
					if q >= end || f.PC != q {
						continue outer
					}
					continue
				}
				*clock = base + t
				before := p.Stats.Instructions
				c, eerr := p.execute(f, u.Inst)
				if eerr != nil {
					return true, t, lastRet, doneAt, eerr
				}
				if p.Stats.Instructions != before {
					// Retired without trapping.
					lastRet = int64(t)
					if c == 0 {
						break outer
					}
					t += uint64(c)
					if frameSwitchKinds[u.Kind] {
						f = e.Active()
						if f.ThreadID < 0 {
							break outer
						}
					}
					q++
					if q >= end || f.PC != q {
						// Terminal control transfer or frame switch:
						// re-enter through translation.
						continue outer
					}
					continue
				}
				// Trapped or spun: a handler may have ended the run,
				// halted, posted an IPI, or switched frames.
				if p.done != nil && *p.done {
					doneAt = int64(t)
					t += uint64(c)
					break outer
				}
				if c == 0 {
					// A zero-cost step must not spin inside the window:
					// hand it back to the machine loop, which advances
					// time around it.
					break outer
				}
				t += uint64(c)
				if p.Halted || p.ipiHead < len(p.pendingIPI) {
					break outer
				}
				f = e.Active()
				if f.ThreadID < 0 {
					break outer
				}
				q++
				if q >= end || f.PC != q {
					continue outer
				}
			}
			break // budget exhausted mid-block
		}
		// Cold or unfusable PC: one op through the opcode switch.
		u := &micro[pc]
		if !memOK && memTouchKinds[u.Kind] {
			// Non-perfect memory: the opcode switch could stamp
			// network messages mid-window, so only a provable clock-free
			// cache hit may run here. fusedHit touches no state when it
			// refuses, and Kinds counts only completed dispatches (the
			// caller's fallback Step counts the refused one).
			if u.Kind == isa.MMem && p.fusedHit(f, u) {
				p.Kinds[u.Kind]++
				fops++
				nret++
				lastRet = int64(t)
				t++
				ran = true
				continue
			}
			break
		}
		p.Kinds[u.Kind]++
		fops++
		*clock = base + t
		before := p.Stats.Instructions
		c, eerr := p.execute(f, u.Inst)
		if eerr != nil {
			return true, t, lastRet, doneAt, eerr
		}
		ran = true
		if p.Stats.Instructions != before {
			lastRet = int64(t)
		}
		if p.done != nil && *p.done {
			doneAt = int64(t)
			t += uint64(c)
			break
		}
		if c == 0 {
			break
		}
		t += uint64(c)
	}
	return ran, t, lastRet, doneAt, nil
}

// fusedMem is the superinstruction path for a load/store with no
// full/empty side effects on the perfect-memory port — the dominant
// memory operation in the Table 3 workloads. It mirrors execMemory +
// FEAccess exactly for the case it handles; any special condition
// (flavor side effects, future-tagged address operands, misalignment,
// out-of-range) returns false with no state touched, and the caller
// re-executes through the full path. On a hit the op retired at cost
// 1; Instructions/UsefulCycles accounting is the caller's (fusedOp
// contract). Inside a lane the access is recorded in the lane's log,
// which may refuse it; outside one it is shown to the memory's watch
// first, as every access outside the lanes is (epoch.go).
func (p *Processor) fusedMem(f *core.Frame, u *isa.Micro) bool {
	mm := p.perfMem
	if mm == nil {
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
	if ea%4 != 0 || !mm.InRange(ea) {
		return false
	}
	var value isa.Word
	if u.Store {
		value = e.Reg(u.Rd)
	}
	var prev isa.Word
	var full bool
	if l := p.epoch; l != nil {
		var ok bool
		if prev, full, ok = l.access(p.ID, ea/mem.WordBytes, u.Store, value); !ok {
			return false
		}
	} else {
		mm.Watch(ea, u.Store)
		prev, full = mm.AccessPlain(ea/mem.WordBytes, u.Store, value)
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

// FusedPort is implemented by memory ports that can complete a plain
// flavored access as a clock-free cache hit. It is the narrow slice of
// the ALEWIFE cache controller the superinstruction handlers, inside a
// fused window or per op, may drive without a fabric clock: a hit with
// sufficient permission reads or writes the coherence-protected word
// and costs one cycle with zero stall, exactly like the full
// MemPort.Access hit path.
type FusedPort interface {
	// FusedHit completes a plain (no full/empty side effects) load or
	// store iff it is a cache hit with the required permission.
	// ok=false means the access was not a provable hit and NO state was
	// touched; the caller re-executes through the full port. On ok, prev
	// is the word's prior value (the load result) and full its observed
	// full/empty bit, mirroring FEAccess.
	FusedHit(addr uint32, store bool, value isa.Word) (prev isa.Word, full bool, ok bool)
}

// SetFusedPort installs (or, with nil, removes) the clock-free
// cache-hit port. Like the compiled tier it extends, the port changes
// host-side dispatch only: every access it completes is bit-identical
// to the same access through Mem.Access.
func (p *Processor) SetFusedPort(fp FusedPort) {
	p.fusedPort = fp
	p.lanePort, _ = fp.(LanePort)
}

// fusedHit is fusedMem's counterpart for a machine with a real memory
// system: a plain-flavored load/store that hits the local cache with
// sufficient permission. It mirrors execMemory + the controller's hit
// path exactly for the case it handles; any special condition (flavor
// side effects, future-tagged address operands, misalignment, a miss,
// an upgrade) returns false with no state touched, and the caller
// re-executes through the full path. On a hit the op retired at cost
// 1; Instructions/UsefulCycles accounting is the caller's (fusedOp
// contract). Inside a lane the access goes through the port's
// LaneHit, which records it in the lane's log (epoch.go).
func (p *Processor) fusedHit(f *core.Frame, u *isa.Micro) bool {
	fp := p.fusedPort
	if fp == nil {
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
	var prev isa.Word
	var full, ok bool
	if l := p.epoch; l != nil {
		if p.lanePort == nil {
			return false
		}
		prev, full, ok = p.lanePort.LaneHit(ea, u.Store, value, l)
	} else {
		prev, full, ok = fp.FusedHit(ea, u.Store, value)
	}
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

// fusedOp executes one op through the superinstruction handlers: the
// trap-free register ops inline plus the plain perfect-memory
// load/store (fusedMem), skipping the opcode switch, the clock store
// (only trap handlers and tracers read it), and the per-op retirement
// compare. Every case mirrors its case of execute minus the accounting
// the caller batches (Instructions, UsefulCycles — every op handled
// here retires at cost 1). Anything that could trap or error — a
// future-tagged strict operand, a non-fixnum jmpl base, div/mod (zero
// divisor), any memory special case — returns false with no state
// touched, and the caller re-executes it on the switch.
func (p *Processor) fusedOp(f *core.Frame, u *isa.Micro) bool {
	e := p.Engine
	switch u.Kind {
	case isa.MMem:
		// Perfect memory fuses through the plain-access fast path; an
		// ALEWIFE port fuses exactly the clock-free cache hits (the two
		// are mutually exclusive: perfMem and fusedPort are never both
		// set).
		return p.fusedMem(f, u) || p.fusedHit(f, u)
	case isa.MNop:
		f.PC++
		f.NPC = f.PC + 1
		return true
	case isa.MBranch:
		if f.PSR.CondHolds(u.Cond) {
			f.PC = uint32(int32(f.PC) + u.Imm)
		} else {
			f.PC++
		}
		f.NPC = f.PC + 1
		return true
	case isa.MAdd, isa.MSub, isa.MAnd, isa.MOr, isa.MXor,
		isa.MSll, isa.MSrl, isa.MSra, isa.MMul, isa.MTagCmp, isa.MMovI:
		a := e.Reg(u.Rs1)
		var b isa.Word
		if u.UseImm {
			b = isa.Word(u.Imm)
		} else {
			b = e.Reg(u.Rs2)
		}
		if u.Strict && f.PSR&core.PSRFutureTrap != 0 &&
			(isa.IsFuture(a) || (!u.UseImm && isa.IsFuture(b))) {
			return false // the full handler takes the future trap
		}
		var r isa.Word
		var carry, ovf bool
		switch u.Kind {
		case isa.MAdd:
			sum := uint64(a) + uint64(b)
			r = isa.Word(sum)
			carry = sum>>32 != 0
			ovf = (a>>31 == b>>31) && (r>>31 != a>>31)
		case isa.MSub:
			r = a - b
			carry = a < b
			ovf = (a>>31 != b>>31) && (r>>31 != a>>31)
		case isa.MAnd:
			r = a & b
		case isa.MOr:
			r = a | b
		case isa.MXor:
			r = a ^ b
		case isa.MSll:
			r = a << (uint32(b) & 31)
		case isa.MSrl:
			r = a >> (uint32(b) & 31)
		case isa.MSra:
			r = isa.Word(int32(a) >> (uint32(b) & 31))
		case isa.MMul:
			r = isa.Word(int32(a) * int32(b))
		case isa.MMovI:
			r = isa.Word(u.Imm)
		case isa.MTagCmp:
			// Z <- (tag of rs1 == imm). Fixnums use the two-bit tag.
			var match bool
			if b&isa.TagMask3 == isa.FixnumTag {
				match = a&isa.TagMask2 == isa.FixnumTag
			} else {
				match = a&isa.TagMask3 == b&isa.TagMask3
			}
			f.PSR = f.PSR.WithCC(false, match, false, false)
			f.PC++
			f.NPC = f.PC + 1
			return true
		}
		if u.SetsCC {
			f.PSR = f.PSR.WithCC(int32(r) < 0, r == 0, ovf, carry)
		}
		e.SetReg(u.Rd, r)
		f.PC++
		f.NPC = f.PC + 1
		return true
	case isa.MJmpl:
		target := u.Imm
		if u.Rs1 != isa.RZero {
			base := e.Reg(u.Rs1)
			if !isa.IsFixnum(base) {
				return false // the full handler reports the error
			}
			target += isa.FixnumValue(base)
		}
		e.SetReg(u.Rd, isa.MakeFixnum(int32(f.PC+1)))
		f.PC = uint32(target)
		f.NPC = f.PC + 1
		return true
	case isa.MRdPSR:
		e.SetReg(u.Rd, isa.Word(f.PSR))
		f.PC++
		f.NPC = f.PC + 1
		return true
	case isa.MWrPSR:
		f.PSR = core.PSR(e.Reg(u.Rs1))
		f.PC++
		f.NPC = f.PC + 1
		return true
	case isa.MRdFP:
		e.SetReg(u.Rd, isa.MakeFixnum(int32(e.FP())))
		f.PC++
		f.NPC = f.PC + 1
		return true
	}
	return false
}
