package proc

// The compiled execution tier: superinstruction handlers (fusedOp)
// over the predecoded image, and one loop, RunAhead, that runs a
// processor's next ops back to back ahead of the machine. It has two
// modes. Without a lane log the machine has proved the processor
// isolated for a window of cycles (no other node steps and no network
// event fires), so running the window's ops back to back is observably
// identical to interleaving them with the machine loop: ops fusedOp
// refuses run on the opcode switch with the clock threaded through.
// With a lane log the processor runs a lane (epoch.go) and the loop
// stops before the first op fusedOp refuses.
//
// Exactness contract (held by the differential matrices in
// internal/sim and the per-op oracle in fused_test.go; DESIGN.md,
// "Compiled execution", has the argument): every op observes the same
// machine state, trap payloads, stats increments, and, via the
// threaded clock, the same timestamps as the opcode switch. An op
// fusedOp retired ran no handler, and the loop re-resolves the frame
// after every op it sends to the switch. The window stops at anything
// whose effect could reach outside the processor before the window
// ends (run termination, IPI self-posts, halts, cache/IO traffic on
// non-perfect memory).

import (
	"april/internal/core"
	"april/internal/isa"
	"april/internal/mem"
)

// memTouchKinds marks ops that reach the memory or I/O port. On a
// machine with a cache/network fabric these must not run on the switch
// inside an isolated window (a miss would stamp network messages
// mid-window), so the loop stops before them unless the port is
// perfect memory or fusedOp completes them as clock-free cache hits.
var memTouchKinds = [isa.NumMicroKinds]bool{
	isa.MMem: true, isa.MFlush: true, isa.MLdio: true, isa.MStio: true,
}

// SetCompile arms (or, with a nil image, disarms) the compiled tier:
// Step then fetches from micro, the program's predecoded image shared
// read-only by every processor of the machine, and tries the
// superinstruction handlers before the opcode switch. done is the
// machine's run-termination flag ("main returned"): RunAhead re-checks
// it after every op it sends to the switch, so it never executes past
// the cycle where the machine would have stopped. When the memory port
// is a PerfectPort the raw memory is captured for the plain-access
// fast path.
func (p *Processor) SetCompile(micro []isa.Micro, done *bool) {
	p.micro = micro
	p.done = done
	p.perfMem = nil
	if micro == nil {
		return
	}
	if pp, ok := p.Mem.(*PerfectPort); ok {
		p.perfMem = pp.Mem
	}
}

// Image returns the installed predecoded image, nil when the compiled
// tier is disarmed (tests).
func (p *Processor) Image() []isa.Micro { return p.micro }

// RunAhead runs the processor's next ops back to back, up to budget
// cycles, trying the superinstruction handlers first on every op.
//
// With a nil l it runs an isolated window, which the caller proved for
// budget cycles. An op the handlers refuse runs on the opcode switch,
// with *clock advanced to the op's start cycle while it runs (trap
// handlers and tracers read it) and restored before returning; on a
// port that is not perfect memory the window stops before a memory or
// I/O op the handlers refuse.
//
// With a lane log l it runs a lane of up to budget ops in l: the
// lane's starting state is saved and its accesses recorded, so l can
// cut it back, and the loop stops before the first op the handlers
// refuse, with that op untouched. clock is not read and may be nil.
//
// Returns:
//   - ops: how many ops were dispatched. When 0 the caller must fall
//     back to a normal Step (the state was not touched).
//   - cycles: total cycles executed; the caller treats the run like
//     one multi-cycle Step. In a lane, every op costs one cycle.
//   - lastRet: offset (from the start) of the last op that retired an
//     instruction, -1 if none: the machine's progress watermark.
//   - doneAt: offset of the op that set the done flag, -1 otherwise.
//     The machine must then account cycles exactly as if that op had
//     been the window's only step at offset doneAt.
//   - err: an execution error; cycles then counts only the cycles
//     before the erroring op, so the machine reports the same cycle
//     the per-op loop would have.
//
// Each op has the same state transformation, stats and dispatch
// accounting (Kinds) as a plain Step. Kinds counts only dispatched
// ops: the caller's fallback Step counts a refused one's own dispatch.
func (p *Processor) RunAhead(budget uint64, clock *uint64, l *EpochLog) (ops int, cycles uint64, lastRet, doneAt int64, err error) {
	e := p.Engine
	f := e.Active()
	if l != nil {
		l.save(p, f, int(budget))
		p.epoch = l
	}
	var base uint64
	if clock != nil {
		base = *clock
	}
	// nret counts the ops fusedOp retired, nsw the ops sent to the
	// switch; both are flushed into the counters on every exit.
	var nret, nsw uint64
	var t uint64
	lastRet, doneAt = -1, -1
	micro := p.micro
	plen := uint64(len(micro))
	memOK := p.perfMem != nil
	live := !p.Halted && p.ipiHead == len(p.pendingIPI) && f.ThreadID >= 0
	for live && t < budget && uint64(f.PC) < plen {
		u := &micro[f.PC]
		if p.fusedOp(f, u) {
			// Retired at cost 1 without a handler: the frame, Halted,
			// the IPI queue and the done flag are as they were.
			p.Kinds[u.Kind]++
			nret++
			lastRet = int64(t)
			t++
			continue
		}
		if l != nil || (!memOK && memTouchKinds[u.Kind]) {
			break
		}
		p.Kinds[u.Kind]++
		nsw++
		*clock = base + t
		before := p.Stats.Instructions
		c, eerr := p.execute(f, u.Inst)
		if eerr != nil {
			err = eerr
			break
		}
		if p.Stats.Instructions != before {
			lastRet = int64(t)
		}
		if p.done != nil && *p.done {
			doneAt = int64(t)
			t += uint64(c)
			break
		}
		if c == 0 {
			// A zero-cost step must not spin inside the window: hand it
			// back to the machine loop, which advances time around it.
			break
		}
		t += uint64(c)
		// A handler may have halted, posted an IPI or switched frames.
		f = e.Active()
		live = !p.Halted && p.ipiHead == len(p.pendingIPI) && f.ThreadID >= 0
	}
	p.Stats.Instructions += nret
	p.Stats.UsefulCycles += nret
	if l != nil {
		p.EpochOps += nret
		p.epoch = nil
	} else {
		p.FusedOps += nret + nsw
	}
	if clock != nil {
		*clock = base
	}
	return int(nret + nsw), t, lastRet, doneAt, err
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
		if prev, full, ok = l.access(ea/mem.WordBytes, u.Store, value); !ok {
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
		if p.perfMem != nil {
			return p.fusedMem(f, u)
		}
		return p.fusedHit(f, u)
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
