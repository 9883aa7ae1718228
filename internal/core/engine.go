package core

import (
	"fmt"

	"april/internal/isa"
)

// Timing constants from the paper.
const (
	// TrapEntryCycles: "We count 5 cycles for the trap mechanism to
	// allow the pipeline to empty and save relevant processor state
	// before passing control to the trap handler" (Section 6.1).
	TrapEntryCycles = 5

	// SwitchHandlerCyclesSPARC: the 6-instruction switch-spin trap
	// handler of Section 6.1 (rdpsr/save/save/wrpsr/jmpl/rett), for a
	// total context switch of 11 cycles on the SPARC implementation.
	SwitchHandlerCyclesSPARC = 6

	// SwitchCyclesCustom: "in a custom APRIL implementation ... a
	// four-cycle context switch" (Section 6.1). The custom switch does
	// not take the 5-cycle trap path.
	SwitchCyclesCustom = 4

	// DefaultFrames: the SPARC implementation has eight register
	// windows, two per task frame (user + trap window), yielding four
	// hardware task frames (Section 5).
	DefaultFrames = 4
)

// Frame is one hardware task frame (Figure 2): a register set together
// with a PC chain and a PSR. ThreadID is run-time bookkeeping recording
// which virtual thread is loaded in the frame (-1 when free); the set
// of task frames "acts like a cache on the virtual threads".
type Frame struct {
	R        [isa.NumFrameRegs]isa.Word
	PC, NPC  uint32
	PSR      PSR
	ThreadID int
}

// Reset clears the frame to the free state.
func (f *Frame) Reset() {
	*f = Frame{ThreadID: -1}
}

// Engine is the multithreading core: the task frames, the global
// register file, and the frame pointer, together with the context
// switch mechanics and their cycle accounting.
type Engine struct {
	Frames  []Frame
	Globals [isa.NumGlobalRegs]isa.Word
	fp      int

	// SwitchCycles is the full cost charged per context switch. The
	// SPARC profile is TrapEntryCycles + SwitchHandlerCyclesSPARC = 11;
	// the custom APRIL profile is 4.
	SwitchCycles int

	// OnSwitch, when non-nil, observes every context switch (from, to
	// frame indices). The simulator's tracer hooks it; it must not
	// mutate engine state.
	OnSwitch func(from, to int)

	// Stats.
	Switches uint64 `counter:"switches"` // context switches performed
}

// NewEngine creates an engine with n task frames and the given context
// switch cost in cycles.
func NewEngine(n, switchCycles int) *Engine {
	if n < 1 {
		panic(fmt.Sprintf("core: need at least one task frame, got %d", n))
	}
	e := &Engine{
		Frames:       make([]Frame, n),
		SwitchCycles: switchCycles,
	}
	for i := range e.Frames {
		e.Frames[i].Reset()
	}
	return e
}

// FP returns the current frame pointer.
func (e *Engine) FP() int { return e.fp }

// SetFP sets the frame pointer directly (the STFP instruction).
func (e *Engine) SetFP(fp int) {
	e.fp = ((fp % len(e.Frames)) + len(e.Frames)) % len(e.Frames)
}

// IncFP and DecFP step the frame pointer modulo the number of task
// frames (the INCFP/DECFP instructions of Section 4). They move the
// pointer only; Switch is the full context switch with its cycle cost.
func (e *Engine) IncFP() { e.fp = (e.fp + 1) % len(e.Frames) }
func (e *Engine) DecFP() { e.fp = (e.fp - 1 + len(e.Frames)) % len(e.Frames) }

// Active returns the task frame designated by the FP.
func (e *Engine) Active() *Frame { return &e.Frames[e.fp] }

// Reg reads register n: 0..31 from the active frame (r0 reads as
// fixnum 0), 32..39 from the globals.
func (e *Engine) Reg(n uint8) isa.Word {
	switch {
	case n == isa.RZero:
		return 0
	case int(n) < isa.NumFrameRegs:
		return e.Frames[e.fp].R[n]
	default:
		return e.Globals[int(n)-isa.NumFrameRegs]
	}
}

// SetReg writes register n; writes to r0 are discarded.
func (e *Engine) SetReg(n uint8, w isa.Word) {
	switch {
	case n == isa.RZero:
	case int(n) < isa.NumFrameRegs:
		e.Frames[e.fp].R[n] = w
	default:
		e.Globals[int(n)-isa.NumFrameRegs] = w
	}
}

// Switch performs a context switch to the given frame: the pipeline
// empties, the PC chain of the current frame is saved (it lives in the
// frame already), and the FP moves. It returns the cycle cost.
//
// "A context switch simply involves letting the processor pipeline
// empty while saving the PC-chain and then changing the FP to point to
// another task frame" (Section 3).
func (e *Engine) Switch(to int) int {
	if to < 0 || to >= len(e.Frames) {
		panic(fmt.Sprintf("core: switch to invalid frame %d of %d", to, len(e.Frames)))
	}
	from := e.fp
	e.fp = to
	e.Switches++
	if e.OnSwitch != nil {
		e.OnSwitch(from, to)
	}
	return e.SwitchCycles
}

// SwitchNext switch-spins: context switch to the next task frame in
// sequence without unloading the current thread — the default response
// to cache-miss and synchronization traps in the paper's
// implementation (Section 6.1). Returns the cycle cost.
func (e *Engine) SwitchNext() int {
	return e.Switch((e.fp + 1) % len(e.Frames))
}

// LoadedThreads counts frames holding a live thread.
func (e *Engine) LoadedThreads() int {
	n := 0
	for i := range e.Frames {
		if e.Frames[i].ThreadID >= 0 {
			n++
		}
	}
	return n
}

// FindFrame returns the index of the frame holding thread id, or -1.
func (e *Engine) FindFrame(id int) int {
	for i := range e.Frames {
		if e.Frames[i].ThreadID == id {
			return i
		}
	}
	return -1
}

// FreeFrame returns the index of a frame with no loaded thread,
// preferring the frame after the current one (so a freshly loaded
// thread is the next switch target), or -1 if all frames are occupied.
func (e *Engine) FreeFrame() int {
	n := len(e.Frames)
	for d := 0; d < n; d++ {
		i := (e.fp + 1 + d) % n
		if e.Frames[i].ThreadID < 0 {
			return i
		}
	}
	return -1
}
