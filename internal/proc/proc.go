package proc

import (
	"errors"
	"fmt"

	"april/internal/core"
	"april/internal/isa"
	"april/internal/mem"
	"april/internal/trace"
)

// Handler is the software side of the trap mechanism: the run-time
// system. When the processor traps, the pipeline empties and control
// passes to the handler, which executes in the same task frame as the
// trapped thread (so it can access the thread's registers through the
// engine). The handler returns the cycles it consumed; all trap-path
// cycle charging (the 5-cycle trap entry, the 6-cycle switch handler,
// the 23-cycle future-touch handler, ...) is the handler's
// responsibility, since it depends on the machine profile.
//
// PC contract: for a syscall trap the processor advances the PC past
// the trap instruction before invoking the handler (the service
// completes the instruction); for every other trap the PC still
// addresses the trapping instruction, so the default outcome is to
// retry it — the paper's "immediately return from the trap and retry
// the trapping instruction".
type Handler interface {
	HandleTrap(p *Processor, t core.Trap) (cycles int, err error)

	// Idle is invoked when the active task frame holds no thread. The
	// handler may load a thread (from its ready queue or by stealing
	// work) or report how many cycles the processor idles.
	Idle(p *Processor) (cycles int, err error)
}

// Common execution errors.
var (
	ErrHalted    = errors.New("proc: processor halted")
	ErrNoHandler = errors.New("proc: trap with no handler installed")
)

// Stats aggregates the cycle breakdown needed for the utilization
// analyses of Section 8: useful work, memory wait, trap/switch
// overhead, and idle time.
type Stats struct {
	Instructions uint64 `counter:"instructions"`
	UsefulCycles uint64 `counter:"useful_cycles"` // instruction execution
	WaitCycles   uint64 `counter:"wait_cycles"`   // processor held for memory (MHOLD)
	TrapCycles   uint64 `counter:"trap_cycles"`   // trap entry + handler + context switches
	IdleCycles   uint64 `counter:"idle_cycles"`   // no loaded thread could run
	Traps        [16]uint64
	// The access counts are per node only: the machine group carries
	// the cycle decomposition.
	LoadCount  uint64 `counter:"loads,nosum"`
	StoreCount uint64 `counter:"stores,nosum"`
}

// TotalCycles is the sum of all categories.
func (s *Stats) TotalCycles() uint64 {
	return s.UsefulCycles + s.WaitCycles + s.TrapCycles + s.IdleCycles
}

// Utilization is the fraction of cycles doing useful work.
func (s *Stats) Utilization() float64 {
	t := s.TotalCycles()
	if t == 0 {
		return 0
	}
	return float64(s.UsefulCycles) / float64(t)
}

// Processor is one APRIL CPU: the core multithreading engine driven by
// the instruction interpreter, attached to a memory port and a trap
// handler.
type Processor struct {
	ID      int
	Engine  *core.Engine
	Prog    *isa.Program
	Mem     MemPort
	IO      IOPort
	Handler Handler

	Halted bool
	Stats  Stats

	// Trace, when non-nil, records trap events (and is shared with the
	// runtime and memory system for theirs). Tracing never changes
	// simulated behavior.
	Trace *trace.Tracer

	// The IPI queue is drained with a head index rather than by
	// reslicing: popping via pendingIPI = pendingIPI[1:] would both
	// strand delivered payloads in the backing array (keeping them
	// reachable) and force append to grow a fresh array once the
	// original capacity slides out of view. The head index reuses one
	// backing array for the lifetime of the processor, and PostIPI
	// compacts once the head passes half the slice so a queue that is
	// appended to while partially drained cannot grow without bound.
	pendingIPI []isa.Word
	ipiHead    int

	// Kinds counts dispatched instructions by micro-op kind. The
	// opcode switch and the compiled tier's superinstruction handlers
	// increment once per dispatch attempt, so the counts are
	// tier-invariant; they live outside Stats because they are
	// telemetry (the "isa" counter group), not part of the simulated
	// machine state the differential tests compare.
	Kinds [isa.NumMicroKinds]uint64

	// FusedOps counts dispatches RunAhead executed in isolated
	// windows, InlineSteps the single Steps resolved by the
	// superinstruction handlers, and EpochOps the ops RunAhead ran in
	// the epoch engine's lanes (a cut lane's undone ops leave it, its
	// replayed ones count again): compile-tier coverage telemetry (the
	// "compile" counter group), outside Stats for the same reason as
	// Kinds.
	FusedOps    uint64 `counter:"fused_ops"`
	InlineSteps uint64 `counter:"inline_steps"`
	EpochOps    uint64 `counter:"epoch_ops"`

	// IdlePolls counts executed Handler.Idle calls: host-side telemetry
	// (the "park" counter group), since the work-proportional run loop
	// elides the polls of parked nodes and charges their cycles in closed
	// form, so the count differs between run loops by design.
	IdlePolls uint64

	// Compile-tier state (see compile.go), installed by SetCompile:
	// the predecoded image (shared read-only across the machine's
	// processors), the run-termination flag RunAhead must observe after
	// every op it sends to the switch, and, when the memory port is a
	// PerfectPort, the raw memory behind it for the plain-access fast
	// path.
	micro   []isa.Micro
	done    *bool
	perfMem *mem.Memory

	// fusedPort, when non-nil, is the clock-free cache-hit slice of an
	// ALEWIFE memory port (see compile.go), letting the superinstruction
	// handlers complete plain cached accesses without the full port
	// call.
	fusedPort FusedPort
	lanePort  LanePort // fusedPort as a LanePort, nil when it is not one

	// epoch is the log of the epoch lane this processor is running
	// (see epoch.go), nil outside a lane: fusedMem and fusedHit
	// record their accesses there.
	epoch *EpochLog
}

// New creates a processor over the given engine and program.
func New(id int, e *core.Engine, prog *isa.Program, memPort MemPort) *Processor {
	return &Processor{ID: id, Engine: e, Prog: prog, Mem: memPort}
}

// PostIPI queues an interprocessor interrupt; it is delivered as an
// asynchronous trap before the next instruction of whatever thread is
// running (Section 3.4).
func (p *Processor) PostIPI(payload isa.Word) {
	switch {
	case p.ipiHead == len(p.pendingIPI):
		// Queue drained: rewind so the backing array is reused.
		p.pendingIPI = p.pendingIPI[:0]
		p.ipiHead = 0
	case p.ipiHead > len(p.pendingIPI)/2:
		// The head passed the midpoint: slide the undelivered tail to
		// the front. Each payload moves at most once per crossing, so
		// the copy is amortized O(1) and the queue's footprint tracks
		// the undelivered count instead of the delivery history.
		n := copy(p.pendingIPI, p.pendingIPI[p.ipiHead:])
		p.pendingIPI = p.pendingIPI[:n]
		p.ipiHead = 0
	}
	p.pendingIPI = append(p.pendingIPI, payload)
}

// PendingIPIs reports queued, undelivered IPIs.
func (p *Processor) PendingIPIs() int { return len(p.pendingIPI) - p.ipiHead }

// NextStepIdles reports whether the next Step will hand control to
// Handler.Idle: the processor runs, no asynchronous trap is pending,
// and the active frame holds no thread (stepSlow's last case).
func (p *Processor) NextStepIdles() bool {
	return !p.Halted && p.ipiHead == len(p.pendingIPI) && p.Engine.Active().ThreadID < 0
}

// ipiQueueLen reports the backing-queue length including delivered
// slots (tests use it to observe compaction).
func (p *Processor) ipiQueueLen() int { return len(p.pendingIPI) }

func (p *Processor) trap(t core.Trap) (int, error) {
	p.Stats.Traps[t.Kind]++
	if p.Handler == nil {
		return 0, fmt.Errorf("%w: %v", ErrNoHandler, t)
	}
	frame := p.Engine.FP() // the frame the trap was delivered in
	cycles, err := p.Handler.HandleTrap(p, t)
	p.Stats.TrapCycles += uint64(cycles)
	if err == nil {
		p.Trace.Emit(p.ID, trace.KTrap, int32(t.Kind), int32(t.PC), int32(cycles), int32(frame))
	}
	return cycles, err
}

// Step executes at most one instruction of the active task frame and
// returns the cycles consumed (instruction time, memory wait, trap
// handling, or idling). The caller (the node's cycle loop) advances
// simulated time by the return value.
//
// The body is organized as a fast dispatch path: Step runs once per
// simulated instruction machine-wide, so the common case — running
// thread, in-bounds PC, no pending IPI — resolves the active frame
// once, fetches by direct slice index (no call, no error wrapping),
// and falls through to execute. The rare cases divert to stepSlow.
func (p *Processor) Step() (int, error) {
	if p.Halted || p.ipiHead < len(p.pendingIPI) {
		return p.stepSlow()
	}
	f := p.Engine.Active()
	if f.ThreadID < 0 {
		return p.stepSlow()
	}
	if m := p.micro; m != nil {
		if uint64(f.PC) >= uint64(len(m)) {
			return 0, p.pcBoundsErr(f, len(m))
		}
		u := &m[f.PC]
		p.Kinds[u.Kind]++
		// Compiled tier armed: a single op at the correct cycle may run
		// through the superinstruction handlers even outside a fused
		// window — it is the same state transformation at the same
		// interleaving point, just without the opcode switch (and, for
		// plain perfect-memory accesses, the port call). Multi-stepper
		// cycles, which can never fuse, still get the tier's per-op win
		// this way. Everything else runs on the switch.
		if p.fusedOp(f, u) {
			p.InlineSteps++
			p.Stats.Instructions++
			p.Stats.UsefulCycles++
			return 1, nil
		}
		return p.execute(f, u.Inst)
	}
	code := p.Prog.Code
	if uint64(f.PC) >= uint64(len(code)) {
		return 0, p.pcBoundsErr(f, len(code))
	}
	inst := code[f.PC]
	p.Kinds[isa.KindOf(inst.Op)]++
	return p.execute(f, inst)
}

// pcBoundsErr is the out-of-bounds-PC error shared by both execution
// tiers.
func (p *Processor) pcBoundsErr(f *core.Frame, progLen int) error {
	return fmt.Errorf("proc %d frame %d thread %d: isa: PC %d outside program of %d instructions",
		p.ID, p.Engine.FP(), f.ThreadID, f.PC, progLen)
}

// stepSlow handles the uncommon Step cases: a halted processor, a
// pending asynchronous trap, or an empty task frame.
func (p *Processor) stepSlow() (int, error) {
	if p.Halted {
		return 0, ErrHalted
	}

	// Deliver one pending asynchronous trap first.
	if p.ipiHead < len(p.pendingIPI) {
		payload := p.pendingIPI[p.ipiHead]
		p.ipiHead++
		f := p.Engine.Active()
		return p.trap(core.Trap{Kind: core.TrapIPI, PC: f.PC, Value: payload})
	}

	// An empty frame means the scheduler must find work.
	if p.Handler == nil {
		return 0, fmt.Errorf("%w: idle with no handler", ErrNoHandler)
	}
	p.IdlePolls++
	cycles, err := p.Handler.Idle(p)
	p.Stats.IdleCycles += uint64(cycles)
	return cycles, err
}

// advance moves the active frame's PC chain past the current
// instruction.
func (p *Processor) advance(f *core.Frame) {
	f.PC++
	f.NPC = f.PC + 1
}

// execute is the reference interpreter: one instruction of the active
// frame through the opcode switch. Both tiers run it (the compiled tier
// for every op its superinstruction handlers refuse); the caller counts
// the dispatch in Kinds.
func (p *Processor) execute(f *core.Frame, inst isa.Inst) (int, error) {
	e := p.Engine
	switch inst.Op.Class() {
	case isa.ClassNop:
		p.advance(f)
		p.Stats.Instructions++
		p.Stats.UsefulCycles++
		return 1, nil

	case isa.ClassCompute:
		return p.execCompute(f, inst)

	case isa.ClassLoad, isa.ClassStore:
		return p.execMemory(f, inst)

	case isa.ClassBranch:
		p.Stats.Instructions++
		p.Stats.UsefulCycles++
		if f.PSR.CondHolds(inst.Op.Cond()) {
			f.PC = uint32(int32(f.PC) + inst.Imm)
		} else {
			f.PC++
		}
		f.NPC = f.PC + 1
		return 1, nil

	case isa.ClassJmpl:
		p.Stats.Instructions++
		p.Stats.UsefulCycles++
		target := inst.Imm
		if inst.Rs1 != isa.RZero {
			base := e.Reg(inst.Rs1)
			if !isa.IsFixnum(base) {
				return 1, fmt.Errorf("proc %d: jmpl through non-fixnum %#x at pc=%d", p.ID, base, f.PC)
			}
			target += isa.FixnumValue(base)
		}
		link := isa.MakeFixnum(int32(f.PC + 1))
		e.SetReg(inst.Rd, link)
		f.PC = uint32(target)
		f.NPC = f.PC + 1
		return 1, nil

	case isa.ClassFrame:
		p.Stats.Instructions++
		p.Stats.UsefulCycles++
		switch inst.Op {
		case isa.OpIncFP:
			p.advance(f)
			e.IncFP()
		case isa.OpDecFP:
			p.advance(f)
			e.DecFP()
		case isa.OpRdFP:
			e.SetReg(inst.Rd, isa.MakeFixnum(int32(e.FP())))
			p.advance(f)
		case isa.OpStFP:
			p.advance(f)
			e.SetFP(int(isa.FixnumValue(e.Reg(inst.Rs1))))
		case isa.OpRdPSR:
			e.SetReg(inst.Rd, isa.Word(f.PSR))
			p.advance(f)
		case isa.OpWrPSR:
			f.PSR = core.PSR(e.Reg(inst.Rs1))
			p.advance(f)
		}
		return 1, nil

	case isa.ClassCacheOp:
		p.Stats.Instructions++
		p.Stats.UsefulCycles++
		addr := uint32(int32(uint32(e.Reg(inst.Rs1))) + inst.Imm)
		stall := p.Mem.Flush(addr)
		p.Stats.WaitCycles += uint64(stall)
		p.advance(f)
		return 1 + stall, nil

	case isa.ClassIO:
		return p.execIO(f, inst)

	case isa.ClassTrap:
		p.Stats.Instructions++
		p.Stats.UsefulCycles++
		pc := f.PC
		p.advance(f) // the service completes the instruction
		cycles, err := p.trap(core.Trap{Kind: core.TrapSyscall, PC: pc, Inst: inst, Service: inst.Imm})
		return 1 + cycles, err

	case isa.ClassHalt:
		p.Stats.Instructions++
		p.Stats.UsefulCycles++
		p.Halted = true
		return 1, nil
	}
	return 0, fmt.Errorf("proc %d: unimplemented opcode %v at pc=%d", p.ID, inst.Op, f.PC)
}

func (p *Processor) execCompute(f *core.Frame, inst isa.Inst) (int, error) {
	e := p.Engine
	a := e.Reg(inst.Rs1)
	var b isa.Word
	if inst.UseImm {
		b = isa.Word(inst.Imm)
	} else {
		b = e.Reg(inst.Rs2)
	}

	// Hardware future detection (Section 4): strict operations trap if
	// an operand has its LSB set.
	if inst.Op.Strict() && f.PSR&core.PSRFutureTrap != 0 {
		if isa.IsFuture(a) {
			return p.trap(core.Trap{Kind: core.TrapFuture, PC: f.PC, Inst: inst, Value: a, Reg: inst.Rs1})
		}
		if !inst.UseImm && isa.IsFuture(b) {
			return p.trap(core.Trap{Kind: core.TrapFuture, PC: f.PC, Inst: inst, Value: b, Reg: inst.Rs2})
		}
	}

	var (
		r          isa.Word
		carry, ovf bool
	)
	switch inst.Op {
	case isa.OpAdd, isa.OpAddCC, isa.OpRawAdd:
		sum := uint64(a) + uint64(b)
		r = isa.Word(sum)
		carry = sum>>32 != 0
		ovf = (a>>31 == b>>31) && (r>>31 != a>>31)
	case isa.OpSub, isa.OpSubCC, isa.OpRawSub:
		r = a - b
		carry = a < b
		ovf = (a>>31 != b>>31) && (r>>31 != a>>31)
	case isa.OpAnd, isa.OpAndCC, isa.OpRawAnd:
		r = a & b
	case isa.OpOr, isa.OpOrCC:
		r = a | b
	case isa.OpXor, isa.OpXorCC:
		r = a ^ b
	case isa.OpSll:
		r = a << (uint32(b) & 31)
	case isa.OpSrl:
		r = a >> (uint32(b) & 31)
	case isa.OpSra:
		r = isa.Word(int32(a) >> (uint32(b) & 31))
	case isa.OpMul:
		r = isa.Word(int32(a) * int32(b))
	case isa.OpDiv:
		if b == 0 {
			return 1, fmt.Errorf("proc %d: division by zero at pc=%d", p.ID, f.PC)
		}
		r = isa.Word(int32(a) / int32(b))
	case isa.OpMod:
		if b == 0 {
			return 1, fmt.Errorf("proc %d: modulo by zero at pc=%d", p.ID, f.PC)
		}
		r = isa.Word(int32(a) % int32(b))
	case isa.OpTagCmp:
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
	case isa.OpMovI:
		r = isa.Word(inst.Imm)
	default:
		return 0, fmt.Errorf("proc %d: unimplemented compute op %v", p.ID, inst.Op)
	}

	if inst.Op.SetsCC() {
		f.PSR = f.PSR.WithCC(int32(r) < 0, r == 0, ovf, carry)
	}
	e.SetReg(inst.Rd, r)
	p.advance(f)
	p.Stats.Instructions++
	p.Stats.UsefulCycles++
	return 1, nil
}

func (p *Processor) execMemory(f *core.Frame, inst isa.Inst) (int, error) {
	e := p.Engine
	base := e.Reg(inst.Rs1)
	offset := inst.Imm
	var index isa.Word
	if !inst.UseImm {
		index = e.Reg(inst.Rs2)
	}

	// Address-operand future detection: "memory instructions also trap
	// if the least significant bit of either of their address operands
	// are non-zero", providing implicit touches for car/cdr (Section 4).
	if f.PSR&core.PSRFutureTrap != 0 {
		if isa.IsFuture(base) {
			return p.trap(core.Trap{Kind: core.TrapAddrFuture, PC: f.PC, Inst: inst, Value: base, Reg: inst.Rs1})
		}
		if !inst.UseImm && isa.IsFuture(index) {
			return p.trap(core.Trap{Kind: core.TrapAddrFuture, PC: f.PC, Inst: inst, Value: index, Reg: inst.Rs2})
		}
	}

	ea := uint32(int32(uint32(base)) + int32(uint32(index)) + offset)
	if ea%4 != 0 {
		return p.trap(core.Trap{Kind: core.TrapAlign, PC: f.PC, Inst: inst, Addr: ea})
	}

	store := inst.Op.IsStore()
	flavor := inst.Op.Flavor()
	var value isa.Word
	if store {
		value = e.Reg(inst.Rd)
	}

	res, err := p.Mem.Access(ea, flavor, store, value)
	if err != nil {
		return 0, fmt.Errorf("proc %d pc=%d: %w", p.ID, f.PC, err)
	}
	if res.Outcome == Retry {
		// Wait-on-miss flavor with the data still in flight: hold the
		// processor (MHOLD) and re-execute.
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
		return p.trap(core.Trap{Kind: kind, PC: f.PC, Inst: inst, Addr: ea, Store: store})
	case RemoteMiss:
		return p.trap(core.Trap{Kind: core.TrapCacheMiss, PC: f.PC, Inst: inst, Addr: ea, Store: store})
	}

	// Completed. Non-trapping flavors expose the prior full/empty state
	// through the condition bit for Jfull/Jempty.
	f.PSR = f.PSR.WithFull(res.Full)
	if store {
		p.Stats.StoreCount++
	} else {
		e.SetReg(inst.Rd, res.Value)
		p.Stats.LoadCount++
	}
	p.advance(f)
	p.Stats.Instructions++
	p.Stats.UsefulCycles++
	p.Stats.WaitCycles += uint64(res.Stall)
	return 1 + res.Stall, nil
}

func (p *Processor) execIO(f *core.Frame, inst isa.Inst) (int, error) {
	if p.IO == nil {
		return 0, fmt.Errorf("proc %d: %v with no I/O port at pc=%d", p.ID, inst.Op, f.PC)
	}
	e := p.Engine
	addr := uint32(int32(uint32(e.Reg(inst.Rs1))) + inst.Imm)
	p.Stats.Instructions++
	p.Stats.UsefulCycles++
	if inst.Op == isa.OpLdio {
		w, stall, err := p.IO.LoadIO(addr)
		if err != nil {
			return 0, err
		}
		e.SetReg(inst.Rd, w)
		p.advance(f)
		p.Stats.WaitCycles += uint64(stall)
		return 1 + stall, nil
	}
	stall, err := p.IO.StoreIO(addr, e.Reg(inst.Rd))
	if err != nil {
		return 0, err
	}
	p.advance(f)
	p.Stats.WaitCycles += uint64(stall)
	return 1 + stall, nil
}

// Run steps the processor until it halts, errs, or exceeds maxCycles.
// It returns the simulated cycle count. Intended for single-processor
// programs and tests; multiprocessor configurations are driven in
// lockstep by package sim.
func (p *Processor) Run(maxCycles uint64) (uint64, error) {
	var now uint64
	for !p.Halted {
		c, err := p.Step()
		if err != nil {
			return now, err
		}
		if c <= 0 {
			c = 1
		}
		now += uint64(c)
		if now > maxCycles {
			return now, fmt.Errorf("proc %d: exceeded cycle budget %d", p.ID, maxCycles)
		}
	}
	return now, nil
}
