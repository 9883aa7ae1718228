package proc

import (
	"errors"
	"testing"
	"testing/quick"

	"april/internal/core"
	"april/internal/isa"
	"april/internal/mem"
)

// recordingHandler captures traps and can perform canned responses.
type recordingHandler struct {
	traps   []core.Trap
	onTrap  func(p *Processor, t core.Trap) (int, error)
	onIdle  func(p *Processor) (int, error)
	idleCnt int
}

func (h *recordingHandler) HandleTrap(p *Processor, t core.Trap) (int, error) {
	h.traps = append(h.traps, t)
	if h.onTrap != nil {
		return h.onTrap(p, t)
	}
	return 0, errors.New("unexpected trap: " + t.String())
}

func (h *recordingHandler) Idle(p *Processor) (int, error) {
	h.idleCnt++
	if h.onIdle != nil {
		return h.onIdle(p)
	}
	return 0, errors.New("unexpected idle")
}

// newProc builds a single-frame-active processor around code.
func newProc(t *testing.T, code []isa.Inst) (*Processor, *mem.Memory) {
	t.Helper()
	m := mem.New(1 << 16)
	e := core.NewEngine(4, core.TrapEntryCycles+core.SwitchHandlerCyclesSPARC)
	e.Frames[0].ThreadID = 1
	e.Frames[0].PSR |= core.PSRFutureTrap
	prog := &isa.Program{Code: code}
	p := New(0, e, prog, &PerfectPort{Mem: m})
	return p, m
}

func run(t *testing.T, p *Processor) {
	t.Helper()
	if _, err := p.Run(1 << 20); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestArithLoop(t *testing.T) {
	// sum = 0; for i = 10 downto 1: sum += i. Fixnum-tagged values, as
	// compiled code would use (raw odd integers would read as futures).
	one := int32(isa.MakeFixnum(1))
	code := []isa.Inst{
		isa.MovI(8, isa.MakeFixnum(10)), // r8 = i = 10
		isa.MovI(9, isa.MakeFixnum(0)),  // r9 = sum
		isa.R3(isa.OpAdd, 9, 9, 8),      // sum += i
		isa.RI(isa.OpSubCC, 8, 8, one),  // i--
		isa.Br(isa.OpBg, -2),            // loop while i > 0
		isa.Halt,
	}
	p, _ := newProc(t, code)
	run(t, p)
	if got := isa.FixnumValue(p.Engine.Reg(9)); got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
	if !p.Halted {
		t.Error("not halted")
	}
}

func TestComputeOpsMatchGo(t *testing.T) {
	ops := []struct {
		op isa.Opcode
		f  func(a, b int32) int32
		ok func(a, b int32) bool
	}{
		{isa.OpAdd, func(a, b int32) int32 { return a + b }, nil},
		{isa.OpSub, func(a, b int32) int32 { return a - b }, nil},
		{isa.OpAnd, func(a, b int32) int32 { return a & b }, nil},
		{isa.OpOr, func(a, b int32) int32 { return a | b }, nil},
		{isa.OpXor, func(a, b int32) int32 { return a ^ b }, nil},
		{isa.OpMul, func(a, b int32) int32 { return a * b }, nil},
		{isa.OpDiv, func(a, b int32) int32 { return a / b }, func(a, b int32) bool { return b != 0 && !(a == -2147483648 && b == -1) }},
		{isa.OpMod, func(a, b int32) int32 { return a % b }, func(a, b int32) bool { return b != 0 && !(a == -2147483648 && b == -1) }},
		{isa.OpSll, func(a, b int32) int32 { return a << (uint32(b) & 31) }, nil},
		{isa.OpSrl, func(a, b int32) int32 { return int32(uint32(a) >> (uint32(b) & 31)) }, nil},
		{isa.OpSra, func(a, b int32) int32 { return a >> (uint32(b) & 31) }, nil},
	}
	for _, o := range ops {
		o := o
		f := func(a, b int32) bool {
			// Avoid LSB-set operands: strict ops trap on "futures".
			a &^= 1
			b &^= 1
			if o.ok != nil && !o.ok(a, b) {
				return true
			}
			code := []isa.Inst{
				isa.MovI(8, isa.Word(a)),
				isa.MovI(9, isa.Word(b)),
				isa.R3(o.op, 10, 8, 9),
				isa.Halt,
			}
			p, _ := newProc(t, code)
			if _, err := p.Run(100); err != nil {
				return false
			}
			return int32(p.Engine.Reg(10)) == o.f(a, b)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", o.op.Name(), err)
		}
	}
}

func TestDivisionByZeroErrors(t *testing.T) {
	code := []isa.Inst{
		isa.MovI(8, 10),
		isa.RI(isa.OpDiv, 9, 8, 0),
		isa.Halt,
	}
	p, _ := newProc(t, code)
	if _, err := p.Run(100); err == nil {
		t.Error("division by zero did not error")
	}
}

func TestJmplCallReturn(t *testing.T) {
	// main: call f; after return r9 = r8+1; halt. f: r8 = 42; return.
	code := []isa.Inst{
		isa.Jmpl(isa.RLink, isa.RZero, 3), // 0: call f (at 3)
		isa.RI(isa.OpAdd, 9, 8, 2),        // 1: r9 = r8 + 2
		isa.Halt,                          // 2
		isa.MovI(8, 42),                   // 3: f
		isa.Jmpl(isa.RZero, isa.RLink, 0), // 4: return
	}
	p, _ := newProc(t, code)
	run(t, p)
	if got := uint32(p.Engine.Reg(9)); got != 44 {
		t.Errorf("r9 = %d, want 44", got)
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	code := []isa.Inst{
		isa.MovI(8, 0x2000),
		isa.MovI(9, isa.Word(isa.MakeFixnum(7))),
		isa.St(isa.OpStnt, 8, 0, 9),
		isa.Ld(isa.OpLdnt, 10, 8, 0),
		isa.Halt,
	}
	p, _ := newProc(t, code)
	run(t, p)
	if got := isa.FixnumValue(p.Engine.Reg(10)); got != 7 {
		t.Errorf("loaded %d, want 7", got)
	}
}

func TestIndexedAddressing(t *testing.T) {
	code := []isa.Inst{
		isa.MovI(8, 0x2000), // base
		isa.MovI(9, 8),      // index
		isa.MovI(10, 0x123<<2),
		isa.StX(isa.OpStnt, 8, 9, 10),
		isa.LdX(isa.OpLdnt, 11, 8, 9),
		isa.Halt,
	}
	p, m := newProc(t, code)
	run(t, p)
	if got := m.MustLoad(0x2008); got != 0x123<<2 {
		t.Errorf("memory at base+index = %#x", got)
	}
	if p.Engine.Reg(11) != 0x123<<2 {
		t.Errorf("indexed load got %#x", p.Engine.Reg(11))
	}
}

// TestLoadFlavors exercises Table 2 semantics end to end.
func TestLoadFlavors(t *testing.T) {
	const addr = 0x2000

	t.Run("trapping load of empty location traps", func(t *testing.T) {
		for _, op := range []isa.Opcode{isa.OpLdtt, isa.OpLdett, isa.OpLdtw, isa.OpLdetw} {
			code := []isa.Inst{isa.MovI(8, addr), isa.Ld(op, 9, 8, 0), isa.Halt}
			p, m := newProc(t, code)
			m.MustSetFE(addr, false)
			h := &recordingHandler{onTrap: func(p *Processor, tr core.Trap) (int, error) {
				p.Halted = true // stop the test program
				return 0, nil
			}}
			p.Handler = h
			run(t, p)
			if len(h.traps) != 1 || h.traps[0].Kind != core.TrapEmpty {
				t.Errorf("%s: traps = %v, want one empty-location trap", op.Name(), h.traps)
			}
			if h.traps[0].Addr != addr {
				t.Errorf("%s: trap addr %#x", op.Name(), h.traps[0].Addr)
			}
		}
	})

	t.Run("non-trapping load of empty location sets condition bit", func(t *testing.T) {
		for _, op := range []isa.Opcode{isa.OpLdnt, isa.OpLdent, isa.OpLdnw, isa.OpLdenw} {
			code := []isa.Inst{isa.MovI(8, addr), isa.Ld(op, 9, 8, 0), isa.Halt}
			p, m := newProc(t, code)
			m.MustStore(addr, isa.MakeFixnum(5))
			m.MustSetFE(addr, false)
			run(t, p)
			if p.Engine.Frames[0].PSR.Full() {
				t.Errorf("%s: condition bit reads full for empty location", op.Name())
			}
			if isa.FixnumValue(p.Engine.Reg(9)) != 5 {
				t.Errorf("%s: load did not complete", op.Name())
			}
		}
	})

	t.Run("resetting loads empty the location", func(t *testing.T) {
		for _, op := range []isa.Opcode{isa.OpLdett, isa.OpLdent, isa.OpLdenw, isa.OpLdetw} {
			code := []isa.Inst{isa.MovI(8, addr), isa.Ld(op, 9, 8, 0), isa.Halt}
			p, m := newProc(t, code)
			run(t, p) // location starts full
			if m.MustFE(addr) {
				t.Errorf("%s: location still full after resetting load", op.Name())
			}
			if !p.Engine.Frames[0].PSR.Full() {
				t.Errorf("%s: condition bit should report prior (full) state", op.Name())
			}
		}
	})

	t.Run("non-resetting loads preserve the bit", func(t *testing.T) {
		for _, op := range []isa.Opcode{isa.OpLdtt, isa.OpLdnt, isa.OpLdnw, isa.OpLdtw} {
			code := []isa.Inst{isa.MovI(8, addr), isa.Ld(op, 9, 8, 0), isa.Halt}
			p, m := newProc(t, code)
			run(t, p)
			if !m.MustFE(addr) {
				t.Errorf("%s: load changed the full/empty bit", op.Name())
			}
		}
	})
}

func TestStoreFlavors(t *testing.T) {
	const addr = 0x2000

	t.Run("trapping store to full location traps", func(t *testing.T) {
		code := []isa.Inst{isa.MovI(8, addr), isa.St(isa.OpSttt, 8, 0, 9), isa.Halt}
		p, m := newProc(t, code)
		h := &recordingHandler{onTrap: func(p *Processor, tr core.Trap) (int, error) {
			p.Halted = true
			return 0, nil
		}}
		p.Handler = h
		run(t, p) // location starts full
		if len(h.traps) != 1 || h.traps[0].Kind != core.TrapFullStore {
			t.Errorf("traps = %v, want full-location store trap", h.traps)
		}
		if m.MustLoad(addr) != 0 {
			t.Error("trapping store had side effects")
		}
	})

	t.Run("filling store sets the bit full", func(t *testing.T) {
		code := []isa.Inst{
			isa.MovI(8, addr),
			isa.MovI(9, isa.Word(isa.MakeFixnum(3))),
			isa.St(isa.OpStftt, 8, 0, 9), // traps on full, so empty it first below
			isa.Halt,
		}
		p, m := newProc(t, code)
		m.MustSetFE(addr, false)
		run(t, p)
		if !m.MustFE(addr) {
			t.Error("stftt did not fill the location")
		}
		if isa.FixnumValue(m.MustLoad(addr)) != 3 {
			t.Error("stftt did not store")
		}
	})

	t.Run("producer-consumer via Jempty/Jfull", func(t *testing.T) {
		// Writer fills an empty slot; reader tests with a non-trapping
		// load and branches on the condition bit.
		code := []isa.Inst{
			isa.MovI(8, addr),
			isa.Ld(isa.OpLdnt, 9, 8, 0), // probe
			isa.Br(isa.OpJfull, 4),      // full? -> consume at 5
			isa.MovI(10, isa.Word(isa.MakeFixnum(9))),
			isa.St(isa.OpStfnt, 8, 0, 10), // produce, fill
			isa.Br(isa.OpBa, -4),          // retry probe
			isa.Ld(isa.OpLdent, 11, 8, 0), // 6: consume & empty
			isa.Halt,
		}
		p, m := newProc(t, code)
		m.MustSetFE(addr, false)
		run(t, p)
		if isa.FixnumValue(p.Engine.Reg(11)) != 9 {
			t.Errorf("consumed %v", p.Engine.Reg(11))
		}
		if m.MustFE(addr) {
			t.Error("consuming load did not empty the slot")
		}
	})
}

func TestFutureDetectionOnCompute(t *testing.T) {
	fut := isa.MakeFuture(0x2000)
	code := []isa.Inst{
		isa.MovI(8, fut),
		isa.RI(isa.OpAdd, 9, 8, 4), // strict op on a future
		isa.Halt,
	}
	p, _ := newProc(t, code)
	var got core.Trap
	p.Handler = &recordingHandler{onTrap: func(p *Processor, tr core.Trap) (int, error) {
		got = tr
		p.Halted = true
		return 23, nil // paper's resolved future-touch handler cost
	}}
	run(t, p)
	if got.Kind != core.TrapFuture {
		t.Fatalf("trap = %v, want future trap", got)
	}
	if got.Value != fut || got.Reg != 8 {
		t.Errorf("trap value=%#x reg=%d", got.Value, got.Reg)
	}
	if p.Stats.TrapCycles != 23 {
		t.Errorf("TrapCycles = %d", p.Stats.TrapCycles)
	}
}

func TestFutureDetectionDisabled(t *testing.T) {
	// With PSRFutureTrap clear (the Encore profile), strict ops do not
	// trap on futures.
	fut := isa.MakeFuture(0x2000)
	code := []isa.Inst{
		isa.MovI(8, fut),
		isa.RI(isa.OpRawAdd, 9, 8, 0),
		isa.RI(isa.OpAdd, 10, 8, 4),
		isa.Halt,
	}
	p, _ := newProc(t, code)
	p.Engine.Frames[0].PSR &^= core.PSRFutureTrap
	run(t, p)
	if p.Engine.Reg(9) != fut {
		t.Error("rawadd mangled the future")
	}
}

func TestRawOpsNeverTrapOnFutures(t *testing.T) {
	fut := isa.MakeFuture(0x2000)
	code := []isa.Inst{
		isa.MovI(8, fut),
		isa.RI(isa.OpRawAnd, 9, 8, 7), // extract tag
		isa.Halt,
	}
	p, _ := newProc(t, code) // future traps ENABLED
	run(t, p)
	if p.Engine.Reg(9) != isa.FutureTag {
		t.Errorf("tag = %#x, want future tag", p.Engine.Reg(9))
	}
}

func TestAddressFutureTrap(t *testing.T) {
	fut := isa.MakeFuture(0x2000)
	code := []isa.Inst{
		isa.MovI(8, fut),
		isa.Ld(isa.OpLdnt, 9, 8, 0), // dereference a future: implicit touch
		isa.Halt,
	}
	p, _ := newProc(t, code)
	var got core.Trap
	p.Handler = &recordingHandler{onTrap: func(p *Processor, tr core.Trap) (int, error) {
		got = tr
		p.Halted = true
		return 0, nil
	}}
	run(t, p)
	if got.Kind != core.TrapAddrFuture || got.Value != fut {
		t.Errorf("trap = %+v, want addr-future with the future pointer", got)
	}
}

func TestAlignmentTrap(t *testing.T) {
	code := []isa.Inst{
		isa.MovI(8, 0x2002), // even but not word aligned (not a future)
		isa.Ld(isa.OpLdnt, 9, 8, 0),
		isa.Halt,
	}
	p, _ := newProc(t, code)
	var got core.Trap
	p.Handler = &recordingHandler{onTrap: func(p *Processor, tr core.Trap) (int, error) {
		got = tr
		p.Halted = true
		return 0, nil
	}}
	run(t, p)
	if got.Kind != core.TrapAlign || got.Addr != 0x2002 {
		t.Errorf("trap = %+v", got)
	}
}

func TestTagCmp(t *testing.T) {
	cases := []struct {
		v    isa.Word
		tag  isa.Word
		want bool
	}{
		{isa.MakeFixnum(5), isa.FixnumTag, true},
		{isa.MakeFixnum(-5), isa.FixnumTag, true},
		{isa.MakeCons(0x2000), isa.FixnumTag, false},
		{isa.MakeCons(0x2000), isa.ConsTag, true},
		{isa.MakeFuture(0x2000), isa.FutureTag, true},
		{isa.Nil, isa.OtherTag, true},
		{isa.MakeFixnum(4), isa.ConsTag, false}, // fixnum 4 = raw 0b10000
	}
	for _, c := range cases {
		code := []isa.Inst{
			isa.MovI(8, c.v),
			isa.RI(isa.OpTagCmp, 0, 8, int32(c.tag)),
			isa.Br(isa.OpBe, 3), // Z set -> matched
			isa.MovI(9, 0),
			isa.Halt,
			isa.MovI(9, 1),
			isa.Halt,
		}
		p, _ := newProc(t, code)
		run(t, p)
		if got := p.Engine.Reg(9) == 1; got != c.want {
			t.Errorf("tagcmp %#x vs tag %#x = %v, want %v", c.v, c.tag, got, c.want)
		}
	}
}

func TestFrameInstructions(t *testing.T) {
	code := []isa.Inst{
		isa.Inst{Op: isa.OpRdFP, Rd: 8}, // r8 = 0
		isa.Inst{Op: isa.OpIncFP},       // now in frame 1... but frame 1 has no thread
	}
	p, _ := newProc(t, code)
	// Give frame 1 a thread so Step doesn't go idle; have it halt.
	p.Engine.Frames[1].ThreadID = 2
	p.Engine.Frames[1].PC = 2
	full := append(code, isa.Halt)
	p.Prog = &isa.Program{Code: full}
	run(t, p)
	if p.Engine.FP() != 1 {
		t.Errorf("FP = %d after incfp", p.Engine.FP())
	}
	if isa.FixnumValue(p.Engine.Frames[0].R[8]) != 0 {
		t.Error("rdfp wrong")
	}
}

func TestSyscallAdvancesPCFirst(t *testing.T) {
	code := []isa.Inst{
		isa.Trap(7),
		isa.Halt,
	}
	p, _ := newProc(t, code)
	var pcAtTrap uint32
	p.Handler = &recordingHandler{onTrap: func(p *Processor, tr core.Trap) (int, error) {
		pcAtTrap = p.Engine.Active().PC
		if tr.Service != 7 {
			t.Errorf("service = %d", tr.Service)
		}
		return 2, nil
	}}
	run(t, p)
	if pcAtTrap != 1 {
		t.Errorf("PC during syscall = %d, want 1 (advanced past trap)", pcAtTrap)
	}
}

func TestIPIDelivery(t *testing.T) {
	code := []isa.Inst{isa.Nop, isa.Halt}
	p, _ := newProc(t, code)
	p.PostIPI(isa.MakeFixnum(99))
	var got core.Trap
	p.Handler = &recordingHandler{onTrap: func(p *Processor, tr core.Trap) (int, error) {
		got = tr
		return 1, nil
	}}
	run(t, p)
	if got.Kind != core.TrapIPI || isa.FixnumValue(got.Value) != 99 {
		t.Errorf("IPI trap = %+v", got)
	}
	if p.PendingIPIs() != 0 {
		t.Error("IPI not consumed")
	}
}

func TestIdleInvokesHandler(t *testing.T) {
	code := []isa.Inst{isa.Halt}
	p, _ := newProc(t, code)
	p.Engine.Frames[0].ThreadID = -1 // no thread loaded
	h := &recordingHandler{onIdle: func(p *Processor) (int, error) {
		p.Halted = true
		return 3, nil
	}}
	p.Handler = h
	if _, err := p.Step(); err != nil {
		t.Fatal(err)
	}
	if h.idleCnt != 1 || p.Stats.IdleCycles != 3 {
		t.Errorf("idle count %d cycles %d", h.idleCnt, p.Stats.IdleCycles)
	}
}

func TestStatsBreakdown(t *testing.T) {
	code := []isa.Inst{
		isa.MovI(8, 0x2000),
		isa.Ld(isa.OpLdnt, 9, 8, 0),
		isa.St(isa.OpStnt, 8, 4, 9),
		isa.Halt,
	}
	p, _ := newProc(t, code)
	run(t, p)
	if p.Stats.Instructions != 4 {
		t.Errorf("instructions = %d", p.Stats.Instructions)
	}
	if p.Stats.LoadCount != 1 || p.Stats.StoreCount != 1 {
		t.Errorf("loads=%d stores=%d", p.Stats.LoadCount, p.Stats.StoreCount)
	}
	if p.Stats.UsefulCycles != 4 || p.Stats.TotalCycles() != 4 {
		t.Errorf("cycles = %+v", p.Stats)
	}
	if p.Stats.Utilization() != 1.0 {
		t.Errorf("utilization = %v", p.Stats.Utilization())
	}
}

func TestWildPCErrors(t *testing.T) {
	p, _ := newProc(t, []isa.Inst{isa.Br(isa.OpBa, 100)})
	if _, err := p.Run(100); err == nil {
		t.Error("wild PC did not error")
	}
}

func TestTrapWithoutHandlerErrors(t *testing.T) {
	code := []isa.Inst{isa.Trap(1)}
	p, _ := newProc(t, code)
	_, err := p.Run(100)
	if !errors.Is(err, ErrNoHandler) {
		t.Errorf("err = %v, want ErrNoHandler", err)
	}
}

func TestHaltedProcessorStaysHalted(t *testing.T) {
	p, _ := newProc(t, []isa.Inst{isa.Halt})
	run(t, p)
	if _, err := p.Step(); !errors.Is(err, ErrHalted) {
		t.Errorf("Step after halt = %v, want ErrHalted", err)
	}
}

func TestPSRAndFPInstructions(t *testing.T) {
	// rdpsr/wrpsr round-trip the PSR through a general register;
	// stfp/decfp move the frame pointer.
	code := []isa.Inst{
		{Op: isa.OpRdPSR, Rd: 8},        // r8 = PSR (has PSRFutureTrap)
		isa.RI(isa.OpRawAdd, 9, 8, 0),   // copy
		{Op: isa.OpWrPSR, Rs1: 9},       // PSR = r9 (unchanged)
		isa.MovI(10, isa.MakeFixnum(2)), //
		{Op: isa.OpStFP, Rs1: 10},       // FP = 2
	}
	p, _ := newProc(t, code)
	p.Engine.Frames[2].ThreadID = 3
	p.Engine.Frames[2].PC = uint32(len(code))
	full := append(code, isa.Halt)
	p.Prog = &isa.Program{Code: full}
	run(t, p)
	if p.Engine.FP() != 2 {
		t.Errorf("FP = %d after stfp", p.Engine.FP())
	}
	if p.Engine.Frames[0].PSR&core.PSRFutureTrap == 0 {
		t.Error("wrpsr lost the future-trap bit")
	}
	if isa.Word(p.Engine.Frames[0].R[8])&isa.Word(core.PSRFutureTrap) == 0 {
		t.Error("rdpsr did not expose the future-trap bit")
	}
}

func TestDecFPWraps(t *testing.T) {
	code := []isa.Inst{{Op: isa.OpDecFP}}
	p, _ := newProc(t, code)
	p.Engine.Frames[3].ThreadID = 4
	p.Engine.Frames[3].PC = 1
	p.Prog = &isa.Program{Code: append(code, isa.Halt)}
	run(t, p)
	if p.Engine.FP() != 3 {
		t.Errorf("FP = %d after decfp from 0", p.Engine.FP())
	}
}

func TestRetryResultHoldsProcessor(t *testing.T) {
	// A port that reports Retry keeps re-executing the instruction
	// without trapping, charging wait cycles (the MHOLD path).
	m := mem.New(1 << 16)
	port := &retryPort{inner: &PerfectPort{Mem: m}, retries: 3}
	e := core.NewEngine(4, 11)
	e.Frames[0].ThreadID = 1
	code := []isa.Inst{
		isa.MovI(8, 0x2000),
		isa.Ld(isa.OpLdnw, 9, 8, 0),
		isa.Halt,
	}
	p := New(0, e, &isa.Program{Code: code}, port)
	if _, err := p.Run(1000); err != nil {
		t.Fatal(err)
	}
	if port.retries != 0 {
		t.Errorf("%d retries left", port.retries)
	}
	if p.Stats.WaitCycles == 0 {
		t.Error("no wait cycles charged for the held processor")
	}
}

type retryPort struct {
	inner   MemPort
	retries int
}

func (r *retryPort) Access(addr uint32, f isa.MemFlavor, store bool, v isa.Word) (MemResult, error) {
	if r.retries > 0 {
		r.retries--
		return MemResult{Outcome: Retry, Stall: 4}, nil
	}
	return r.inner.Access(addr, f, store, v)
}

func (r *retryPort) Flush(addr uint32) int { return 0 }

// TestIPIInterleavedPostDeliver hammers the head-index IPI queue with
// interleaved posts and deliveries: every payload must come out exactly
// once, in FIFO order, each delivered as a TrapIPI before the next
// instruction, and the queue must rewind (reusing its backing array)
// every time it drains.
func TestIPIInterleavedPostDeliver(t *testing.T) {
	code := []isa.Inst{
		isa.RI(isa.OpRawAdd, 8, 8, 1), // r8 counts retired instructions
		isa.Br(isa.OpBa, -1),
	}
	p, _ := newProc(t, code)
	var delivered []isa.Word
	h := &recordingHandler{
		onTrap: func(p *Processor, tr core.Trap) (int, error) {
			if tr.Kind != core.TrapIPI {
				return 0, errors.New("unexpected trap: " + tr.String())
			}
			delivered = append(delivered, tr.Value)
			return 1, nil
		},
	}
	p.Handler = h

	step := func() {
		t.Helper()
		if _, err := p.Step(); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
	var want []isa.Word
	next := isa.Word(0)
	post := func(n int) {
		for i := 0; i < n; i++ {
			p.PostIPI(next)
			want = append(want, next)
			next++
		}
	}

	// Bursts of posts between varying numbers of steps, including
	// posting while earlier IPIs are still queued (head mid-array) and
	// full drains in between (head rewinds to a reused array).
	for round := 0; round < 50; round++ {
		post(round % 4)
		step() // delivers one IPI if queued, else retires an instruction
		if round%3 == 0 {
			post(1)
		}
		for p.PendingIPIs() > 0 {
			step()
		}
		if p.ipiHead != len(p.pendingIPI) {
			t.Fatalf("round %d: drained queue out of sync: head=%d len=%d",
				round, p.ipiHead, len(p.pendingIPI))
		}
		// The rewind itself happens on the next post: it must land at
		// slot 0 of the reused backing array.
		p.PostIPI(next)
		want = append(want, next)
		next++
		if p.ipiHead != 0 || len(p.pendingIPI) != 1 {
			t.Fatalf("round %d: post after drain did not rewind: head=%d len=%d",
				round, p.ipiHead, len(p.pendingIPI))
		}
		step()
	}
	if len(delivered) != len(want) {
		t.Fatalf("delivered %d IPIs, want %d", len(delivered), len(want))
	}
	for i := range want {
		if delivered[i] != want[i] {
			t.Fatalf("delivery %d = %d, want %d (FIFO order violated)", i, delivered[i], want[i])
		}
	}
	// The backing array must have stopped growing once it covered the
	// largest burst: capacity bounded by a small constant, not by the
	// total number of IPIs ever posted.
	if c := cap(p.pendingIPI); c > 8 {
		t.Fatalf("IPI backing array grew to %d; rewind is not reusing it", c)
	}
	if h.idleCnt != 0 {
		t.Fatalf("processor went idle %d times during the interleave", h.idleCnt)
	}
}
