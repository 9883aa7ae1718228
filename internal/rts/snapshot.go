package rts

import (
	"fmt"

	"april/internal/isa"
)

// Snapshot support. The scheduler's queues, waiter map, freelists and
// arena cursors are all simulated state: queue order decides which
// thread runs next, freelist order decides which recycled stack a new
// thread receives, and the arena cursors decide the addresses of
// future allocations — so all of them round-trip exactly. waiterPool
// and readyQueues are host-side (recycling scratch and a derived
// count) and are reconstructed.

// SchedImage is a Scheduler's complete snapshot state.
type SchedImage struct {
	MainDone   bool
	MainResult isa.Word
	Stats      Stats

	Threads    []Thread         // by ID
	Ready      [][]int          // per node, oldest first
	Waiters    map[uint32][]int // blocked threads by future address
	FreeStacks []uint32         // LIFO order (next alloc pops the end)
	FreeTCBs   []uint32
	StealRR    int

	StackNext, StackLimit uint32 // stack-region bump cursor
	HeapNext, HeapLimit   uint32 // heap-region bump cursor
}

// DumpState captures the scheduler. The queues, waiter lists and
// freelists are the scheduler's own: read them before it runs again.
func (s *Scheduler) DumpState() SchedImage {
	img := SchedImage{
		MainDone:   s.MainDone,
		MainResult: s.MainResult,
		Stats:      s.Stats,
		Threads:    make([]Thread, len(s.threads)),
		Ready:      s.ready,
		Waiters:    s.waiters,
		FreeStacks: s.freeStacks,
		FreeTCBs:   s.freeTCBs,
		StealRR:    s.stealRR,
		StackNext:  s.stackAlloc.arena.Next,
		StackLimit: s.stackAlloc.arena.Limit,
		HeapNext:   s.heapAlloc.arena.Next,
		HeapLimit:  s.heapAlloc.arena.Limit,
	}
	for i, t := range s.threads {
		img.Threads[i] = *t
	}
	return img
}

// RestoreState installs a dumped scheduler state into a freshly
// constructed scheduler with the same node count. The scheduler takes
// over the image's queues, waiter lists and freelists.
func (s *Scheduler) RestoreState(img SchedImage) error {
	if len(img.Ready) != len(s.ready) {
		return fmt.Errorf("rts: image has %d ready queues, scheduler has %d nodes", len(img.Ready), len(s.ready))
	}
	nthreads := len(img.Threads)
	for i, t := range img.Threads {
		if t.ID != i {
			return fmt.Errorf("rts: image thread %d has ID %d", i, t.ID)
		}
		if t.State > ThreadDead {
			return fmt.Errorf("rts: image thread %d has invalid state %d", i, t.State)
		}
		if t.Home < 0 || t.Home >= len(s.ready) {
			return fmt.Errorf("rts: image thread %d has home %d of %d nodes", i, t.Home, len(s.ready))
		}
	}
	if img.StealRR < 0 {
		return fmt.Errorf("rts: image steal cursor %d", img.StealRR)
	}
	checkIDs := func(where string, ids []int) error {
		for _, id := range ids {
			if id < 0 || id >= nthreads {
				return fmt.Errorf("rts: image %s references thread %d of %d", where, id, nthreads)
			}
		}
		return nil
	}
	for node, q := range img.Ready {
		if err := checkIDs(fmt.Sprintf("ready[%d]", node), q); err != nil {
			return err
		}
	}
	for addr, ids := range img.Waiters {
		if err := checkIDs(fmt.Sprintf("waiters[%#x]", addr), ids); err != nil {
			return err
		}
	}

	s.MainDone = img.MainDone
	s.MainResult = img.MainResult
	s.Stats = img.Stats
	s.threads = make([]*Thread, nthreads)
	for i := range img.Threads {
		t := img.Threads[i]
		s.threads[i] = &t
	}
	copy(s.ready, img.Ready)
	s.readyQueues = 0
	for _, q := range img.Ready {
		if len(q) > 0 {
			s.readyQueues++
		}
	}
	s.waiters = img.Waiters
	s.freeStacks = img.FreeStacks
	s.freeTCBs = img.FreeTCBs
	s.stealRR = img.StealRR
	s.stackAlloc.arena.Next = img.StackNext
	s.stackAlloc.arena.Limit = img.StackLimit
	s.heapAlloc.arena.Next = img.HeapNext
	s.heapAlloc.arena.Limit = img.HeapLimit
	return nil
}

// CorruptThreadState deliberately breaks thread conservation: the
// lowest-ID live thread is marked dead without recycling its stack or
// TCB, so the scheduler's live count drops while the thread remains
// queued, blocked, or resident. The sim layer's sabotage hook
// (sim.Config.SabotageCycle) uses it to plant a deterministic
// invariant violation for divergence-bisection tests; the checkers'
// sched/conservation invariant detects it at the next audit. Returns
// false when no live thread exists.
func (s *Scheduler) CorruptThreadState() bool {
	for _, t := range s.threads {
		if t.State != ThreadDead {
			t.State = ThreadDead
			return true
		}
	}
	return false
}

// StuckImage is one task frame's switch-spin retry tracker: the PC
// its thread last retried and how many times in a row.
type StuckImage struct {
	PC    uint32
	Count int
}

// DumpStuck returns the per-frame retry trackers, one per task frame,
// or nil when the node has never tracked a retry. The list is the
// node's own: read it, do not keep it.
func (n *NodeRT) DumpStuck() *[]StuckImage {
	if n.stuck == nil {
		return nil
	}
	return &n.stuck
}

// RestoreStuck installs a copy of trackers DumpStuck returned.
func (n *NodeRT) RestoreStuck(s *[]StuckImage) {
	if s == nil {
		n.stuck = nil
		return
	}
	n.stuck = append(make([]StuckImage, 0, len(*s)), *s...)
}
