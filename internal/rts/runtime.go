package rts

import (
	"fmt"

	"april/internal/abi"
	"april/internal/core"
	"april/internal/fault"
	"april/internal/heap"
	"april/internal/isa"
	"april/internal/mem"
	"april/internal/proc"
	"april/internal/trace"
)

// NodeRT is the per-processor runtime: the trap handlers and the idle
// (scheduling) loop. It implements proc.Handler.
type NodeRT struct {
	Sched *Scheduler
	Prof  *Profile
	Node  int
	Heap  *heap.Heap // runtime-side allocation arena (refilled in chunks)

	// IPIHook, when set, receives interprocessor interrupts (§3.4).
	IPIHook func(payload isa.Word)

	// Trace records scheduler events and context-switch causes; nil
	// when tracing is disabled.
	Trace *trace.Tracer

	// Check, when non-nil, validates full/empty-bit consistency at trap
	// boundaries: a TrapEmpty must observe the bit empty and a
	// TrapFullStore must observe it full (trap raise and handling are
	// atomic within one Step, so nothing can legally intervene).
	Check *fault.Checker

	// stuck tracks, per task frame, how many times the loaded thread
	// has consecutively retried the same trapping PC without success;
	// past the profile's threshold the thread is blocked or requeued
	// (the paper's guard against switch-spin starvation, Section 3.1).
	stuck []StuckImage
}

// NewNodeRT builds the runtime for one node, giving it an initial heap
// chunk.
func NewNodeRT(s *Scheduler, node int) (*NodeRT, error) {
	base, limit, err := s.HeapChunk(0)
	if err != nil {
		return nil, err
	}
	return &NodeRT{
		Sched: s,
		Prof:  s.Prof,
		Node:  node,
		Heap:  heap.New(s.Mem, mem.NewArena(base, limit)),
	}, nil
}

// allocRetry runs an allocation, refilling the node's runtime arena
// once on exhaustion.
func (n *NodeRT) allocRetry(f func() (isa.Word, error)) (isa.Word, error) {
	w, err := f()
	if err == nil {
		return w, nil
	}
	base, limit, cerr := n.Sched.HeapChunk(0)
	if cerr != nil {
		return 0, cerr
	}
	n.Heap.Arena = mem.NewArena(base, limit)
	return f()
}

func (n *NodeRT) newFuture() (isa.Word, error) {
	return n.allocRetry(n.Heap.NewFuture)
}

// stuckCount bumps and returns the retry count for the active frame at
// pc; a different pc resets the count.
func (n *NodeRT) stuckCount(p *proc.Processor, pc uint32) int {
	if n.stuck == nil {
		n.stuck = make([]StuckImage, len(p.Engine.Frames))
	}
	st := &n.stuck[p.Engine.FP()]
	if st.PC != pc {
		*st = StuckImage{PC: pc}
	}
	st.Count++
	return st.Count
}

// clearStuck resets the active frame's retry tracking (a new thread is
// loaded or the stuck one departs).
func (n *NodeRT) clearStuck(p *proc.Processor) {
	if n.stuck != nil {
		n.stuck[p.Engine.FP()] = StuckImage{}
	}
}

// currentThread returns the thread loaded in the active frame.
func (n *NodeRT) currentThread(p *proc.Processor) *Thread {
	id := p.Engine.Active().ThreadID
	if id < 0 {
		return nil
	}
	return n.Sched.Thread(id)
}

// HandleTrap implements proc.Handler.
func (n *NodeRT) HandleTrap(p *proc.Processor, t core.Trap) (int, error) {
	switch t.Kind {
	case core.TrapFuture, core.TrapAddrFuture:
		return n.touch(p, t.Value, t.Reg, t.PC, false)
	case core.TrapEmpty, core.TrapFullStore:
		if n.Check != nil {
			n.checkSyncFault(t)
		}
		return n.syncFault(p, t.PC)
	case core.TrapCacheMiss:
		// The controller forces a context switch while it services the
		// remote request (Section 3.1); the instruction retries when
		// the thread next runs.
		n.Trace.SetSwitchCause(n.Node, trace.CauseCacheMiss)
		return p.Engine.SwitchNext(), nil
	case core.TrapSyscall:
		return n.syscall(p, t)
	case core.TrapAlign:
		return 0, fmt.Errorf("rts: alignment fault at pc=%d addr=%#x (type error in program?)", t.PC, t.Addr)
	case core.TrapIPI:
		if n.IPIHook != nil {
			n.IPIHook(t.Value)
		}
		return n.Prof.TrapEntry, nil
	}
	return 0, fmt.Errorf("rts: unhandled trap %v", t)
}

// checkSyncFault validates the full/empty bit against the trap that
// just fired: the bit state the access observed must still hold when
// the handler runs.
func (n *NodeRT) checkSyncFault(t core.Trap) {
	full, err := n.Sched.Mem.FE(t.Addr)
	if err != nil {
		n.Check.Violate("fe/trap-address", n.Node, 0,
			"sync fault at pc=%d addr=%#x but FE lookup failed: %v", t.PC, t.Addr, err)
		return
	}
	if t.Kind == core.TrapEmpty && full {
		n.Check.Violate("fe/empty-trap-on-full", n.Node, 0,
			"TrapEmpty at pc=%d but addr %#x is full", t.PC, t.Addr)
	}
	if t.Kind == core.TrapFullStore && !full {
		n.Check.Violate("fe/full-trap-on-empty", n.Node, 0,
			"TrapFullStore at pc=%d but addr %#x is empty", t.PC, t.Addr)
	}
}

// touch handles a future touch: resolved futures are replaced in the
// register and the instruction retried; unresolved ones switch-spin or
// block (Section 3, "spinning / switch spinning / blocking"). software
// marks the Encore-style SvcTouchReg path, which must back the PC up to
// retry the checking trap itself.
func (n *NodeRT) touch(p *proc.Processor, f isa.Word, reg uint8, pc uint32, software bool) (int, error) {
	if !isa.IsFuture(f) {
		return 0, fmt.Errorf("rts: touch trap on non-future %#x", f)
	}
	s := n.Sched
	valueAddr := isa.PointerAddress(f) + abi.FutValueOff
	full, err := s.Mem.FE(valueAddr)
	if err != nil {
		return 0, err
	}
	if full {
		v := s.Mem.MustLoad(valueAddr)
		p.Engine.SetReg(reg, v)
		if software {
			// Re-execute the checking trap: the future may have
			// resolved to another future (a chain), which the
			// re-executed check catches. (The hardware path retries
			// the trapping instruction automatically.)
			p.Engine.Active().PC--
		}
		n.clearStuck(p)
		s.Stats.TouchesResolved++
		return n.Prof.TrapEntry + n.Prof.TouchResolvedHandler, nil
	}
	s.Stats.TouchesUnresolved++
	cost := n.Prof.TrapEntry + n.Prof.TouchDecide
	if software {
		// Retry the checking trap instruction when the thread resumes.
		p.Engine.Active().PC--
	}
	if n.stuckCount(p, pc) > n.Prof.BlockRounds {
		// Block: unload the thread onto the future's waiter list.
		t := n.currentThread(p)
		if t != nil {
			n.unloadThread(p, t)
			s.AddWaiter(isa.PointerAddress(f), t)
			n.Trace.Emit(n.Node, trace.KBlock, int32(t.ID), int32(isa.PointerAddress(f)), 0, 0)
			n.clearStuck(p)
			return cost + n.Prof.ThreadUnload, nil
		}
	}
	n.Trace.SetSwitchCause(n.Node, trace.CauseFuture)
	return cost + p.Engine.SwitchNext(), nil
}

// syncFault handles full/empty synchronization faults by switch
// spinning; after enough fruitless rounds the thread is requeued so
// other threads can run (the paper's guard against synchronization
// starvation).
func (n *NodeRT) syncFault(p *proc.Processor, pc uint32) (int, error) {
	if n.stuckCount(p, pc) > n.Prof.BlockRounds {
		if t := n.currentThread(p); t != nil {
			n.unloadThread(p, t)
			n.Sched.PushReadyOldest(t)
			n.Sched.Stats.Requeues++
			n.clearStuck(p)
			return n.Prof.TrapEntry + n.Prof.TouchDecide + n.Prof.ThreadUnload, nil
		}
	}
	n.Trace.SetSwitchCause(n.Node, trace.CauseSync)
	return n.Prof.TrapEntry + p.Engine.SwitchNext(), nil
}

func (n *NodeRT) syscall(p *proc.Processor, t core.Trap) (int, error) {
	s := n.Sched
	e := p.Engine
	switch abi.TrapService(t.Service) {
	case abi.SvcMainExit:
		s.MainDone = true
		s.MainResult = e.Reg(isa.RArg0)
		if th := n.currentThread(p); th != nil {
			s.Kill(th)
		}
		e.Active().Reset()
		return n.Prof.TaskExit, nil

	case abi.SvcTaskExit:
		th := n.currentThread(p)
		if th == nil {
			return 0, fmt.Errorf("rts: task exit with no thread")
		}
		if th.Future != 0 {
			if err := s.Resolve(th.Future, e.Reg(isa.RArg0)); err != nil {
				return 0, err
			}
		}
		s.Kill(th)
		e.Active().Reset()
		return n.Prof.TaskExit, nil

	case abi.SvcFutureNew:
		clos := e.Reg(isa.RArg0)
		entry, err := n.Heap.ClosureEntry(clos)
		if err != nil {
			return 0, fmt.Errorf("rts: future of non-thunk: %w", err)
		}
		fut, err := n.newFuture()
		if err != nil {
			return 0, err
		}
		th := s.NewThread(n.Node)
		th.Regs[isa.RClos] = clos
		th.Regs[isa.RLink] = isa.MakeFixnum(int32(s.TaskExitPC))
		th.PC = entry
		th.NPC = entry + 1
		th.PSR = n.threadPSR()
		th.Future = fut
		s.PushReady(th)
		s.Stats.TasksCreated++
		n.Trace.Emit(n.Node, trace.KTaskCreate, int32(th.ID), int32(entry), 0, 0)
		e.SetReg(isa.RArg0, fut)
		return n.Prof.FutureNew, nil

	case abi.SvcStolen:
		// RArg0 holds the future the thief stamped into the frame's
		// status slot; RArg1 the value that resolves it.
		fut := e.Reg(isa.RArg0)
		if !isa.IsFuture(fut) {
			return 0, fmt.Errorf("rts: stolen-marker status slot holds non-future %#x", fut)
		}
		if err := s.Resolve(fut, e.Reg(isa.RArg0+1)); err != nil {
			return 0, err
		}
		th := n.currentThread(p)
		if th == nil {
			return 0, fmt.Errorf("rts: stolen-marker trap with no thread")
		}
		s.Kill(th)
		e.Active().Reset()
		n.clearStuck(p)
		return n.Prof.StolenResolve, nil

	case abi.SvcTouchReg:
		reg := uint8(abi.TrapReg(t.Service))
		v := e.Reg(reg)
		if !isa.IsFuture(v) {
			return n.Prof.TrapEntry, nil
		}
		return n.touch(p, v, reg, t.PC, true)

	case abi.SvcAllocRefill:
		reg := uint8(abi.TrapReg(t.Service))
		size := uint32(abi.TrapSize(t.Service))
		base, limit, err := s.HeapChunk(size)
		if err != nil {
			return 0, err
		}
		e.SetReg(reg, isa.Word(base))
		e.SetReg(isa.GAllocPtr, isa.Word(base+size))
		e.SetReg(isa.GAllocLimit, isa.Word(limit))
		return n.Prof.AllocRefill, nil

	case abi.SvcMakeVector:
		count := isa.FixnumValue(e.Reg(isa.RArg0))
		if count < 0 {
			return 0, fmt.Errorf("rts: make-vector of negative length %d", count)
		}
		fill := e.Reg(isa.RArg0 + 1)
		v, err := n.allocRetry(func() (isa.Word, error) { return n.Heap.NewVector(int(count), fill) })
		if err != nil {
			return 0, err
		}
		e.SetReg(isa.RArg0, v)
		return n.Prof.MakeVectorBase + n.Prof.MakeVectorPerWord*int(count), nil

	case abi.SvcPrint:
		fmt.Fprintln(s.Out, n.Heap.Format(e.Reg(isa.RArg0)))
		return n.Prof.Print, nil

	case abi.SvcError:
		code := abi.TrapReg(t.Service)
		return 0, fmt.Errorf("rts: program error %d at pc=%d (%s)", code, t.PC, errName(code))
	case abi.SvcYield:
		n.Trace.SetSwitchCause(n.Node, trace.CauseYield)
		return e.SwitchNext(), nil
	}
	return 0, fmt.Errorf("rts: unknown syscall %d", abi.TrapService(t.Service))
}

func errName(code int) string {
	switch code {
	case abi.ErrCarOfNonPair:
		return "car/cdr of non-pair"
	case abi.ErrIndexRange:
		return "index out of range"
	case abi.ErrNotProcedure:
		return "call of non-procedure"
	case abi.ErrDequeFull:
		return "lazy marker deque overflow"
	case abi.ErrArity:
		return "wrong argument count"
	}
	return "unknown"
}

func (n *NodeRT) threadPSR() core.PSR {
	if n.Prof.HardwareFutures {
		return core.PSRFutureTrap
	}
	return 0
}

// loadThread installs t in the processor's active frame.
func (n *NodeRT) loadThread(p *proc.Processor, t *Thread) (int, error) {
	if err := n.Sched.allocStack(t); err != nil {
		return 0, err
	}
	n.clearStuck(p)
	f := p.Engine.Active()
	f.R = t.Regs
	f.PC, f.NPC = t.PC, t.NPC
	f.PSR = t.PSR
	f.ThreadID = t.ID
	t.State = ThreadLoaded
	n.Trace.Emit(n.Node, trace.KThreadLoad, int32(p.Engine.FP()), int32(t.ID), 0, 0)
	return n.Prof.ThreadLoad, nil
}

// unloadThread saves the active frame back into t and frees the frame.
func (n *NodeRT) unloadThread(p *proc.Processor, t *Thread) {
	f := p.Engine.Active()
	t.Regs = f.R
	t.PC, t.NPC = f.PC, f.NPC
	t.PSR = f.PSR
	f.Reset()
	n.Trace.Emit(n.Node, trace.KThreadUnload, int32(p.Engine.FP()), int32(t.ID), 0, 0)
}

// Idle implements proc.Handler: the active frame is empty, so find
// work — local ready queue first, then remote queues, then (in lazy
// mode) steal a continuation marker; otherwise spin briefly or rotate
// to a loaded frame.
func (n *NodeRT) Idle(p *proc.Processor) (int, error) {
	s := n.Sched
	if t := s.PopReadyLocal(n.Node); t != nil {
		c, err := n.loadThread(p, t)
		return n.Prof.Dequeue + c, err
	}
	if t := s.StealReady(n.Node); t != nil {
		n.Trace.Emit(n.Node, trace.KThreadSteal, int32(t.ID), int32(t.Home), 0, 0)
		c, err := n.loadThread(p, t)
		return n.Prof.Dequeue + c, err
	}
	if s.Lazy {
		if cycles, ok, err := n.stealMarker(p); ok || err != nil {
			return cycles, err
		}
	}
	// Nothing to load: if other frames hold threads, rotate to them.
	if p.Engine.LoadedThreads() > 0 {
		n.Trace.SetSwitchCause(n.Node, trace.CauseIdle)
		return p.Engine.SwitchNext(), nil
	}
	return n.Prof.Idle, nil
}

// PurePoll reports whether p's next Step is a pure poll of the ready
// queues: an Idle call whose outcome Scheduler.ReadyQueues alone
// decides. With every queue empty it touches nothing and costs
// Prof.Idle; with any queue non-empty it loads a thread. Lazy mode
// never qualifies (its poll also runs FindMarker over simulated
// memory), nor does a processor with threads in other frames (Idle
// rotates to them). This is the one place the run loop's parking
// eligibility is decided; keep it in step with Idle above.
func (n *NodeRT) PurePoll(p *proc.Processor) bool {
	return p.NextStepIdles() && !n.Sched.Lazy && p.Engine.LoadedThreads() == 0
}

// stealMarker implements the thief side of lazy task creation: claim
// the oldest marker of some thread, create the future the victim will
// resolve, copy the parent frames onto a fresh stack, and run the
// continuation here (see DESIGN.md substitution 7).
func (n *NodeRT) stealMarker(p *proc.Processor) (int, bool, error) {
	s := n.Sched
	victim := s.FindMarker()
	if victim == nil {
		return 0, false, nil
	}
	m := s.Mem
	bot, _ := DequeBounds(m, victim.TCB)
	resumePC := m.MustLoad(bot + abi.MarkerPCOff)
	parentSP := uint32(m.MustLoad(bot + abi.MarkerSPOff))
	statusAddr := uint32(m.MustLoad(bot + abi.MarkerStatusOff))
	if !isa.IsFixnum(resumePC) {
		return 0, false, fmt.Errorf("rts: corrupt marker at %#x: pc=%#x", bot, resumePC)
	}
	if parentSP < victim.StackLow || parentSP >= victim.StackTop {
		return 0, false, fmt.Errorf("rts: marker sp %#x outside victim %d stack [%#x,%#x)",
			parentSP, victim.ID, victim.StackLow, victim.StackTop)
	}

	fut, err := n.newFuture()
	if err != nil {
		return 0, false, err
	}
	// Claim: stamp the future into the frame's status slot and advance
	// bot. These stores are atomic with respect to simulated
	// instructions (the victim observes either the unclaimed or the
	// claimed state), and the stamp happens before any later thief
	// copies this frame, so inherited pops see it.
	m.MustStore(statusAddr, fut)
	m.MustStore(victim.TCB+abi.TCBBotOff, isa.Word(bot+abi.MarkerBytes))

	// Build the continuation thread on a fresh stack.
	t := s.NewThread(n.Node)
	if err := s.allocStack(t); err != nil {
		return 0, false, err
	}
	region := victim.StackTop - parentSP
	newSP := t.StackTop - region
	delta := newSP - parentSP
	for off := uint32(0); off < region; off += 4 {
		m.MustStore(newSP+off, m.MustLoad(parentSP+off))
	}
	// Relocate the saved-FP chain within the copied region.
	for cur := newSP; ; {
		saved := uint32(m.MustLoad(cur + abi.FrameSavedFPOff))
		if saved < parentSP || saved >= victim.StackTop {
			break
		}
		m.MustStore(cur+abi.FrameSavedFPOff, isa.Word(saved+delta))
		cur = saved + delta
	}

	t.Regs[isa.RSP] = isa.Word(newSP)
	t.Regs[isa.RFP] = isa.Word(newSP)
	t.Regs[isa.RClos] = m.MustLoad(newSP + abi.FrameSavedClosOff)
	t.Regs[isa.RTmp0] = fut // the future stands in for the body's value
	t.PC = uint32(isa.FixnumValue(resumePC))
	t.NPC = t.PC + 1
	t.PSR = n.threadPSR()
	t.State = ThreadReady

	s.Stats.Steals++
	s.Stats.StealWords += uint64(region / 4)
	n.Trace.Emit(n.Node, trace.KSteal, int32(victim.ID), int32(t.ID), int32(region/4), 0)

	cost := n.Prof.Steal + n.Prof.StealPerWord*int(region/4)
	loadCost, err := n.loadThread(p, t)
	return cost + loadCost, true, err
}

var _ proc.Handler = (*NodeRT)(nil)
