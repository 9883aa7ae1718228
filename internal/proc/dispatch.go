package proc

import (
	"fmt"

	"april/internal/core"
	"april/internal/isa"
)

// This file is the predecoded execution path: one handler per
// isa.MicroKind in a flat table, replacing the nested opcode switches
// of execute/execCompute/execMemory on the hot path. Each handler is a
// line-for-line mirror of the corresponding reference-switch case —
// same stats increments, same PSR/register update order, same trap
// payloads, same error returns — so the two paths produce bit-identical
// simulated machines (the differential tests in internal/sim hold them
// to that). The reference path stays selectable (sim's TierReference)
// as the oracle.

// microFn executes one predecoded instruction of the active frame.
type microFn func(p *Processor, f *core.Frame, u *isa.Micro) (int, error)

// microTable is the flat dispatch table, indexed by isa.MicroKind.
var microTable = [isa.NumMicroKinds]microFn{
	isa.MNop:     microNop,
	isa.MAdd:     microAdd,
	isa.MSub:     microSub,
	isa.MAnd:     microAnd,
	isa.MOr:      microOr,
	isa.MXor:     microXor,
	isa.MSll:     microSll,
	isa.MSrl:     microSrl,
	isa.MSra:     microSra,
	isa.MMul:     microMul,
	isa.MDiv:     microDiv,
	isa.MMod:     microMod,
	isa.MTagCmp:  microTagCmp,
	isa.MMovI:    microMovI,
	isa.MMem:     microMem,
	isa.MBranch:  microBranch,
	isa.MJmpl:    microJmpl,
	isa.MIncFP:   microIncFP,
	isa.MDecFP:   microDecFP,
	isa.MRdFP:    microRdFP,
	isa.MStFP:    microStFP,
	isa.MRdPSR:   microRdPSR,
	isa.MWrPSR:   microWrPSR,
	isa.MFlush:   microFlush,
	isa.MLdio:    microLdio,
	isa.MStio:    microStio,
	isa.MTrap:    microTrap,
	isa.MHalt:    microHalt,
	isa.MInvalid: microInvalid,
}

func microNop(p *Processor, f *core.Frame, u *isa.Micro) (int, error) {
	p.advance(f)
	p.Stats.Instructions++
	p.Stats.UsefulCycles++
	return 1, nil
}

// computeOperands fetches the two compute sources and performs the
// hardware future detection of Section 4 for strict operations. The
// bool reports whether a future trap was taken (cycles/err are then the
// trap's).
func computeOperands(p *Processor, f *core.Frame, u *isa.Micro) (a, b isa.Word, cycles int, err error, trapped bool) {
	e := p.Engine
	a = e.Reg(u.Rs1)
	if u.UseImm {
		b = isa.Word(u.Imm)
	} else {
		b = e.Reg(u.Rs2)
	}
	if u.Strict && f.PSR&core.PSRFutureTrap != 0 {
		if isa.IsFuture(a) {
			c, err := p.trap(core.Trap{Kind: core.TrapFuture, PC: f.PC, Inst: u.Inst, Value: a, Reg: u.Rs1})
			return 0, 0, c, err, true
		}
		if !u.UseImm && isa.IsFuture(b) {
			c, err := p.trap(core.Trap{Kind: core.TrapFuture, PC: f.PC, Inst: u.Inst, Value: b, Reg: u.Rs2})
			return 0, 0, c, err, true
		}
	}
	return a, b, 0, nil, false
}

// computeFinish applies the common compute epilogue: condition codes,
// destination write, PC advance, accounting.
func computeFinish(p *Processor, f *core.Frame, u *isa.Micro, r isa.Word, carry, ovf bool) (int, error) {
	if u.SetsCC {
		f.PSR = f.PSR.WithCC(int32(r) < 0, r == 0, ovf, carry)
	}
	p.Engine.SetReg(u.Rd, r)
	p.advance(f)
	p.Stats.Instructions++
	p.Stats.UsefulCycles++
	return 1, nil
}

func microAdd(p *Processor, f *core.Frame, u *isa.Micro) (int, error) {
	a, b, c, err, trapped := computeOperands(p, f, u)
	if trapped {
		return c, err
	}
	sum := uint64(a) + uint64(b)
	r := isa.Word(sum)
	carry := sum>>32 != 0
	ovf := (a>>31 == b>>31) && (r>>31 != a>>31)
	return computeFinish(p, f, u, r, carry, ovf)
}

func microSub(p *Processor, f *core.Frame, u *isa.Micro) (int, error) {
	a, b, c, err, trapped := computeOperands(p, f, u)
	if trapped {
		return c, err
	}
	r := a - b
	carry := a < b
	ovf := (a>>31 != b>>31) && (r>>31 != a>>31)
	return computeFinish(p, f, u, r, carry, ovf)
}

func microAnd(p *Processor, f *core.Frame, u *isa.Micro) (int, error) {
	a, b, c, err, trapped := computeOperands(p, f, u)
	if trapped {
		return c, err
	}
	return computeFinish(p, f, u, a&b, false, false)
}

func microOr(p *Processor, f *core.Frame, u *isa.Micro) (int, error) {
	a, b, c, err, trapped := computeOperands(p, f, u)
	if trapped {
		return c, err
	}
	return computeFinish(p, f, u, a|b, false, false)
}

func microXor(p *Processor, f *core.Frame, u *isa.Micro) (int, error) {
	a, b, c, err, trapped := computeOperands(p, f, u)
	if trapped {
		return c, err
	}
	return computeFinish(p, f, u, a^b, false, false)
}

func microSll(p *Processor, f *core.Frame, u *isa.Micro) (int, error) {
	a, b, c, err, trapped := computeOperands(p, f, u)
	if trapped {
		return c, err
	}
	return computeFinish(p, f, u, a<<(uint32(b)&31), false, false)
}

func microSrl(p *Processor, f *core.Frame, u *isa.Micro) (int, error) {
	a, b, c, err, trapped := computeOperands(p, f, u)
	if trapped {
		return c, err
	}
	return computeFinish(p, f, u, a>>(uint32(b)&31), false, false)
}

func microSra(p *Processor, f *core.Frame, u *isa.Micro) (int, error) {
	a, b, c, err, trapped := computeOperands(p, f, u)
	if trapped {
		return c, err
	}
	return computeFinish(p, f, u, isa.Word(int32(a)>>(uint32(b)&31)), false, false)
}

func microMul(p *Processor, f *core.Frame, u *isa.Micro) (int, error) {
	a, b, c, err, trapped := computeOperands(p, f, u)
	if trapped {
		return c, err
	}
	return computeFinish(p, f, u, isa.Word(int32(a)*int32(b)), false, false)
}

func microDiv(p *Processor, f *core.Frame, u *isa.Micro) (int, error) {
	a, b, c, err, trapped := computeOperands(p, f, u)
	if trapped {
		return c, err
	}
	if b == 0 {
		return 1, fmt.Errorf("proc %d: division by zero at pc=%d", p.ID, f.PC)
	}
	return computeFinish(p, f, u, isa.Word(int32(a)/int32(b)), false, false)
}

func microMod(p *Processor, f *core.Frame, u *isa.Micro) (int, error) {
	a, b, c, err, trapped := computeOperands(p, f, u)
	if trapped {
		return c, err
	}
	if b == 0 {
		return 1, fmt.Errorf("proc %d: modulo by zero at pc=%d", p.ID, f.PC)
	}
	return computeFinish(p, f, u, isa.Word(int32(a)%int32(b)), false, false)
}

func microTagCmp(p *Processor, f *core.Frame, u *isa.Micro) (int, error) {
	a, b, c, err, trapped := computeOperands(p, f, u)
	if trapped {
		return c, err
	}
	// Z <- (tag of rs1 == imm). Fixnums use the two-bit tag.
	var match bool
	if b&isa.TagMask3 == isa.FixnumTag {
		match = a&isa.TagMask2 == isa.FixnumTag
	} else {
		match = a&isa.TagMask3 == b&isa.TagMask3
	}
	f.PSR = f.PSR.WithCC(false, match, false, false)
	p.advance(f)
	p.Stats.Instructions++
	p.Stats.UsefulCycles++
	return 1, nil
}

func microMovI(p *Processor, f *core.Frame, u *isa.Micro) (int, error) {
	_, _, c, err, trapped := computeOperands(p, f, u)
	if trapped {
		return c, err
	}
	return computeFinish(p, f, u, isa.Word(u.Imm), false, false)
}

func microMem(p *Processor, f *core.Frame, u *isa.Micro) (int, error) {
	e := p.Engine
	base := e.Reg(u.Rs1)
	offset := u.Imm
	var index isa.Word
	if !u.UseImm {
		index = e.Reg(u.Rs2)
	}

	// Address-operand future detection (implicit touches, Section 4).
	if f.PSR&core.PSRFutureTrap != 0 {
		if isa.IsFuture(base) {
			return p.trap(core.Trap{Kind: core.TrapAddrFuture, PC: f.PC, Inst: u.Inst, Value: base, Reg: u.Rs1})
		}
		if !u.UseImm && isa.IsFuture(index) {
			return p.trap(core.Trap{Kind: core.TrapAddrFuture, PC: f.PC, Inst: u.Inst, Value: index, Reg: u.Rs2})
		}
	}

	ea := uint32(int32(uint32(base)) + int32(uint32(index)) + offset)
	if ea%4 != 0 {
		return p.trap(core.Trap{Kind: core.TrapAlign, PC: f.PC, Inst: u.Inst, Addr: ea})
	}

	store := u.Store
	var value isa.Word
	if store {
		value = e.Reg(u.Rd)
	}

	res, err := p.Mem.Access(ea, u.Flavor, store, value)
	if err != nil {
		return 0, fmt.Errorf("proc %d pc=%d: %w", p.ID, f.PC, err)
	}
	if res.Outcome == Retry {
		stall := res.Stall
		if stall < 1 {
			stall = 1
		}
		p.Stats.WaitCycles += uint64(stall)
		return stall, nil
	}
	switch res.Outcome {
	case SyncFault:
		kind := core.TrapEmpty
		if store {
			kind = core.TrapFullStore
		}
		return p.trap(core.Trap{Kind: kind, PC: f.PC, Inst: u.Inst, Addr: ea, Store: store})
	case RemoteMiss:
		return p.trap(core.Trap{Kind: core.TrapCacheMiss, PC: f.PC, Inst: u.Inst, Addr: ea, Store: store})
	}

	f.PSR = f.PSR.WithFull(res.Full)
	if store {
		p.Stats.StoreCount++
	} else {
		e.SetReg(u.Rd, res.Value)
		p.Stats.LoadCount++
	}
	p.advance(f)
	p.Stats.Instructions++
	p.Stats.UsefulCycles++
	p.Stats.WaitCycles += uint64(res.Stall)
	return 1 + res.Stall, nil
}

func microBranch(p *Processor, f *core.Frame, u *isa.Micro) (int, error) {
	p.Stats.Instructions++
	p.Stats.UsefulCycles++
	if f.PSR.CondHolds(u.Cond) {
		f.PC = uint32(int32(f.PC) + u.Imm)
	} else {
		f.PC++
	}
	f.NPC = f.PC + 1
	return 1, nil
}

func microJmpl(p *Processor, f *core.Frame, u *isa.Micro) (int, error) {
	e := p.Engine
	p.Stats.Instructions++
	p.Stats.UsefulCycles++
	target := u.Imm
	if u.Rs1 != isa.RZero {
		base := e.Reg(u.Rs1)
		if !isa.IsFixnum(base) {
			return 1, fmt.Errorf("proc %d: jmpl through non-fixnum %#x at pc=%d", p.ID, base, f.PC)
		}
		target += isa.FixnumValue(base)
	}
	link := isa.MakeFixnum(int32(f.PC + 1))
	e.SetReg(u.Rd, link)
	f.PC = uint32(target)
	f.NPC = f.PC + 1
	return 1, nil
}

func microIncFP(p *Processor, f *core.Frame, u *isa.Micro) (int, error) {
	p.Stats.Instructions++
	p.Stats.UsefulCycles++
	p.advance(f)
	p.Engine.IncFP()
	return 1, nil
}

func microDecFP(p *Processor, f *core.Frame, u *isa.Micro) (int, error) {
	p.Stats.Instructions++
	p.Stats.UsefulCycles++
	p.advance(f)
	p.Engine.DecFP()
	return 1, nil
}

func microRdFP(p *Processor, f *core.Frame, u *isa.Micro) (int, error) {
	p.Stats.Instructions++
	p.Stats.UsefulCycles++
	p.Engine.SetReg(u.Rd, isa.MakeFixnum(int32(p.Engine.FP())))
	p.advance(f)
	return 1, nil
}

func microStFP(p *Processor, f *core.Frame, u *isa.Micro) (int, error) {
	p.Stats.Instructions++
	p.Stats.UsefulCycles++
	p.advance(f)
	p.Engine.SetFP(int(isa.FixnumValue(p.Engine.Reg(u.Rs1))))
	return 1, nil
}

func microRdPSR(p *Processor, f *core.Frame, u *isa.Micro) (int, error) {
	p.Stats.Instructions++
	p.Stats.UsefulCycles++
	p.Engine.SetReg(u.Rd, isa.Word(f.PSR))
	p.advance(f)
	return 1, nil
}

func microWrPSR(p *Processor, f *core.Frame, u *isa.Micro) (int, error) {
	p.Stats.Instructions++
	p.Stats.UsefulCycles++
	f.PSR = core.PSR(p.Engine.Reg(u.Rs1))
	p.advance(f)
	return 1, nil
}

func microFlush(p *Processor, f *core.Frame, u *isa.Micro) (int, error) {
	p.Stats.Instructions++
	p.Stats.UsefulCycles++
	addr := uint32(int32(uint32(p.Engine.Reg(u.Rs1))) + u.Imm)
	stall := p.Mem.Flush(addr)
	p.Stats.WaitCycles += uint64(stall)
	p.advance(f)
	return 1 + stall, nil
}

func microLdio(p *Processor, f *core.Frame, u *isa.Micro) (int, error) {
	if p.IO == nil {
		return 0, fmt.Errorf("proc %d: %v with no I/O port at pc=%d", p.ID, u.Op, f.PC)
	}
	e := p.Engine
	addr := uint32(int32(uint32(e.Reg(u.Rs1))) + u.Imm)
	p.Stats.Instructions++
	p.Stats.UsefulCycles++
	w, stall, err := p.IO.LoadIO(addr)
	if err != nil {
		return 0, err
	}
	e.SetReg(u.Rd, w)
	p.advance(f)
	p.Stats.WaitCycles += uint64(stall)
	return 1 + stall, nil
}

func microStio(p *Processor, f *core.Frame, u *isa.Micro) (int, error) {
	if p.IO == nil {
		return 0, fmt.Errorf("proc %d: %v with no I/O port at pc=%d", p.ID, u.Op, f.PC)
	}
	e := p.Engine
	addr := uint32(int32(uint32(e.Reg(u.Rs1))) + u.Imm)
	p.Stats.Instructions++
	p.Stats.UsefulCycles++
	stall, err := p.IO.StoreIO(addr, e.Reg(u.Rd))
	if err != nil {
		return 0, err
	}
	p.advance(f)
	p.Stats.WaitCycles += uint64(stall)
	return 1 + stall, nil
}

func microTrap(p *Processor, f *core.Frame, u *isa.Micro) (int, error) {
	p.Stats.Instructions++
	p.Stats.UsefulCycles++
	pc := f.PC
	p.advance(f) // the service completes the instruction
	cycles, err := p.trap(core.Trap{Kind: core.TrapSyscall, PC: pc, Inst: u.Inst, Service: u.Imm})
	return 1 + cycles, err
}

func microHalt(p *Processor, f *core.Frame, u *isa.Micro) (int, error) {
	p.Stats.Instructions++
	p.Stats.UsefulCycles++
	p.Halted = true
	return 1, nil
}

func microInvalid(p *Processor, f *core.Frame, u *isa.Micro) (int, error) {
	return 0, fmt.Errorf("proc %d: unimplemented opcode %v at pc=%d", p.ID, u.Op, f.PC)
}
