package rts

import (
	"cmp"
	"fmt"
	"io"
	"slices"

	"april/internal/abi"
	"april/internal/isa"
	"april/internal/mem"
	"april/internal/trace"
)

// Stats counts scheduler events across the machine.
type Stats struct {
	TasksCreated      uint64 `counter:"tasks_created"` // eager tasks
	Steals            uint64 `counter:"steals"`        // lazy continuations stolen
	StealWords        uint64 `counter:"steal_words"`   // stack words copied by steals
	Blocks            uint64 `counter:"blocks"`        // threads blocked on unresolved futures
	Requeues          uint64 `counter:"requeues"`      // threads requeued after F/E sync faults
	Wakes             uint64 `counter:"wakes"`
	ThreadSteals      uint64 `counter:"thread_steals"` // eager tasks taken from a remote ready queue
	TouchesResolved   uint64 `counter:"touches_resolved"`
	TouchesUnresolved uint64 `counter:"touches_unresolved"`
}

// Scheduler is the machine-wide thread system shared by all node
// runtimes. The simulator runs nodes in lockstep (one instruction per
// node per turn), so scheduler operations are atomic with respect to
// simulated instructions and need no Go-level locking.
type Scheduler struct {
	Mem  *mem.Memory
	Prof *Profile
	Lazy bool
	Out  io.Writer

	TaskExitPC uint32
	MainExitPC uint32

	MainDone   bool
	MainResult isa.Word

	Stats Stats

	// Trace records machine-wide scheduler events (wakes); nil when
	// tracing is disabled.
	Trace *trace.Tracer

	threads []*Thread
	ready   [][]int // per-node LIFO (newest at the end)
	// waiters lists the threads blocked on each future, ascending by
	// the future's address. A sorted slice rather than a map: blocking
	// and resolving allocate only when it outgrows its longest length
	// so far, the same in every process, where a map under this
	// insert/delete churn grows at points its per-process hash seed
	// decides.
	waiters []WaiterList
	// waiterPool recycles waiter slices freed by Resolve so the
	// block/resolve steady state does not churn the allocator.
	waiterPool [][]int

	// readyQueues counts nonempty ready queues, so an idle node's steal
	// probe is O(1) when the whole machine is out of work — the common
	// case in low-parallelism phases — instead of scanning every queue.
	readyQueues int

	stackAlloc *chunkAlloc
	freeStacks []uint32 // recycled stack chunk bases
	freeTCBs   []uint32

	heapAlloc *chunkAlloc
	heapChunk uint32 // a HeapChunk's default size: heapChunkBytes, or smallHeapChunkBytes on a crowded arena

	stealRR int   // round-robin cursor over threads for marker stealing
	tcbs    []int // ids of the threads holding a TCB, ascending
}

// Memory chunk sizes. A heap chunk is heapChunkBytes unless two of
// them per node would not fit the heap arena (a machine of thousands
// of nodes), when it is smallHeapChunkBytes: every machine whose nodes
// fit the large chunk keeps it, so its simulated addresses do not move.
const (
	stackChunkBytes     = abi.StackBytes
	heapChunkBytes      = 256 << 10
	smallHeapChunkBytes = 64 << 10
)

// NewScheduler creates the thread system over the given memory regions.
// The heap chunk size follows from nodes and the heap arena alone, so a
// restored machine, built over the same regions, derives the same one.
func NewScheduler(m *mem.Memory, prof *Profile, lazy bool, nodes int,
	stackArena, heapArena *mem.Arena, out io.Writer) *Scheduler {
	if out == nil {
		out = io.Discard
	}
	chunk := uint32(heapChunkBytes)
	if 2*uint64(nodes)*heapChunkBytes > uint64(heapArena.Remaining()) {
		chunk = smallHeapChunkBytes
	}
	return &Scheduler{
		Mem:        m,
		Prof:       prof,
		Lazy:       lazy,
		Out:        out,
		ready:      make([][]int, nodes),
		stackAlloc: &chunkAlloc{arena: stackArena, what: "stack"},
		heapAlloc:  &chunkAlloc{arena: heapArena, what: "heap"},
		heapChunk:  chunk,
	}
}

// HeapChunk hands a node a fresh allocation chunk (for both the
// compiled code's bump allocator and the runtime's own allocations).
func (s *Scheduler) HeapChunk(minBytes uint32) (base, limit uint32, err error) {
	n := s.heapChunk
	if minBytes > n {
		n = (minBytes + 7) &^ 7
	}
	base, err = s.heapAlloc.alloc(n)
	if err != nil {
		return 0, 0, err
	}
	return base, base + n, nil
}

// NewThread registers a fresh thread (stackless until first load).
func (s *Scheduler) NewThread(home int) *Thread {
	t := &Thread{ID: len(s.threads), State: ThreadReady, Home: home}
	s.threads = append(s.threads, t)
	return t
}

// Thread returns a thread by id.
func (s *Scheduler) Thread(id int) *Thread { return s.threads[id] }

// NumThreads returns the number of threads ever created.
func (s *Scheduler) NumThreads() int { return len(s.threads) }

// PushReady enqueues t on its home node's ready queue (LIFO: the
// scheduler favors the most recently created task, which keeps the
// live-task set depth-first and bounded).
func (s *Scheduler) PushReady(t *Thread) {
	t.State = ThreadReady
	if len(s.ready[t.Home]) == 0 {
		s.readyQueues++
	}
	s.ready[t.Home] = append(s.ready[t.Home], t.ID)
}

// PushReadyOldest enqueues t at the OLD end of its home queue, so it
// is the last local choice (and the first steal candidate). Used when
// requeueing a thread that just failed a synchronization attempt:
// putting it back on top would starve the very thread that must run to
// satisfy it (the paper's switch-spin starvation problem).
func (s *Scheduler) PushReadyOldest(t *Thread) {
	t.State = ThreadReady
	q := s.ready[t.Home]
	if len(q) == 0 {
		s.readyQueues++
	}
	// In-place prepend: this runs on every failed synchronization
	// retry, so it must not allocate a fresh slice each time.
	q = append(q, 0)
	copy(q[1:], q)
	q[0] = t.ID
	s.ready[t.Home] = q
}

// PopReadyLocal takes the newest ready thread of node, if any.
func (s *Scheduler) PopReadyLocal(node int) *Thread {
	q := s.ready[node]
	if len(q) == 0 {
		return nil
	}
	id := q[len(q)-1]
	s.ready[node] = q[:len(q)-1]
	if len(q) == 1 {
		s.readyQueues--
	}
	return s.threads[id]
}

// StealReady takes the OLDEST ready thread from some other node
// (oldest-first stealing takes the biggest pending work, as in lazy
// task stealing).
func (s *Scheduler) StealReady(node int) *Thread {
	if s.readyQueues == 0 {
		return nil
	}
	n := len(s.ready)
	for d := 1; d < n; d++ {
		v := (node + d) % n
		if len(s.ready[v]) > 0 {
			q := s.ready[v]
			id := q[0]
			// Shift down instead of reslicing q[1:]: reslicing loses
			// front capacity, so later pushes would reallocate; queues
			// are short, so the copy is cheap.
			copy(q, q[1:])
			s.ready[v] = q[:len(q)-1]
			if len(s.ready[v]) == 0 {
				s.readyQueues--
			}
			s.Stats.ThreadSteals++
			return s.threads[id]
		}
	}
	return nil
}

// ReadyQueues reports how many nodes' ready queues are non-empty. Zero
// means every idle poll anywhere in the machine comes back empty-handed
// (outside lazy mode, where a poll also hunts for continuation
// markers), which is what lets the run loop elide the polls of parked
// idle nodes (sim/wake.go).
func (s *Scheduler) ReadyQueues() int { return s.readyQueues }

// ReadyCount reports queued threads across all nodes.
func (s *Scheduler) ReadyCount() int {
	n := 0
	for _, q := range s.ready {
		n += len(q)
	}
	return n
}

// ReadyOn reports the number of ready threads queued on one node
// (crash-report detail; ReadyCount gives the machine-wide total).
func (s *Scheduler) ReadyOn(node int) int { return len(s.ready[node]) }

// ForEachWaiter calls fn for every blocked-waiter list in ascending
// address order (crash reports and end-of-run audits).
func (s *Scheduler) ForEachWaiter(fn func(addr uint32, threads []int)) {
	for _, w := range s.waiters {
		fn(w.Addr, w.IDs)
	}
}

// WaiterList is the threads blocked on the future at Addr.
type WaiterList struct {
	Addr uint32
	IDs  []int
}

// findWaiters returns the index of addr's list in waiters, or where it
// would go.
func (s *Scheduler) findWaiters(addr uint32) (int, bool) {
	return slices.BinarySearchFunc(s.waiters, addr, func(w WaiterList, a uint32) int { return cmp.Compare(w.Addr, a) })
}

// BlockedByNode counts blocked threads by home node into counts
// (len(counts) must cover every node id). Cold path: crash reports.
func (s *Scheduler) BlockedByNode(counts []int) {
	for _, w := range s.waiters {
		for _, id := range w.IDs {
			counts[s.threads[id].Home]++
		}
	}
}

// AddWaiter blocks thread t on the future object at addr.
func (s *Scheduler) AddWaiter(addr uint32, t *Thread) {
	t.State = ThreadBlocked
	i, ok := s.findWaiters(addr)
	if !ok {
		var q []int
		if n := len(s.waiterPool); n > 0 {
			q = s.waiterPool[n-1]
			s.waiterPool[n-1] = nil
			s.waiterPool = s.waiterPool[:n-1]
		}
		s.waiters = slices.Insert(s.waiters, i, WaiterList{addr, q})
	}
	s.waiters[i].IDs = append(s.waiters[i].IDs, t.ID)
	s.Stats.Blocks++
}

// Resolve writes value into the future f, marks it full, and wakes all
// waiters.
func (s *Scheduler) Resolve(f isa.Word, value isa.Word) error {
	if !isa.IsFuture(f) {
		return fmt.Errorf("rts: resolving non-future %#x", f)
	}
	addr := isa.PointerAddress(f) + abi.FutValueOff
	if err := s.Mem.StoreWord(addr, value); err != nil {
		return err
	}
	s.Mem.MustSetFE(addr, true)
	base := isa.PointerAddress(f)
	i, ok := s.findWaiters(base)
	if !ok {
		return nil
	}
	for _, id := range s.waiters[i].IDs {
		t := s.threads[id]
		if t.State == ThreadBlocked {
			s.PushReady(t)
			s.Stats.Wakes++
			// Attributed to the woken thread's home node: that is whose
			// ready queue receives it.
			s.Trace.Emit(t.Home, trace.KWake, int32(t.ID), int32(base), 0, 0)
		}
	}
	s.waiterPool = append(s.waiterPool, s.waiters[i].IDs[:0])
	s.waiters = slices.Delete(s.waiters, i, i+1)
	return nil
}

// BlockedCount reports threads blocked on futures.
func (s *Scheduler) BlockedCount() int {
	n := 0
	for _, w := range s.waiters {
		n += len(w.IDs)
	}
	return n
}

// allocStack gives t a stack chunk and (in lazy mode) a TCB, setting
// the corresponding registers in its image.
func (s *Scheduler) allocStack(t *Thread) error {
	if t.HasStack() {
		return nil
	}
	var base uint32
	if n := len(s.freeStacks); n > 0 {
		base = s.freeStacks[n-1]
		s.freeStacks = s.freeStacks[:n-1]
	} else {
		var err error
		base, err = s.stackAlloc.alloc(stackChunkBytes)
		if err != nil {
			return err
		}
	}
	t.StackLow = base
	// Stack coloring: stagger each thread's stack top so that frames
	// at equal call depth in different threads do not alias to the
	// same cache sets (power-of-two-aligned stacks would otherwise
	// turn p resident threads into a p-way conflict on every frame
	// slot — a multithreading-specific thrashing pathology).
	skew := uint32((t.ID*7)%128) * 16
	t.StackTop = base + stackChunkBytes - skew
	t.Regs[isa.RSP] = isa.Word(t.StackTop)
	t.Regs[isa.RFP] = 0 // chain sentinel
	if s.Lazy {
		tcb, err := s.allocTCB()
		if err != nil {
			return err
		}
		InitTCB(s.Mem, tcb, t.ID)
		t.TCB = tcb
		i, _ := slices.BinarySearch(s.tcbs, t.ID)
		s.tcbs = slices.Insert(s.tcbs, i, t.ID)
		t.Regs[isa.RTP] = isa.Word(tcb)
	}
	return nil
}

func (s *Scheduler) allocTCB() (uint32, error) {
	if n := len(s.freeTCBs); n > 0 {
		tcb := s.freeTCBs[n-1]
		s.freeTCBs = s.freeTCBs[:n-1]
		return tcb, nil
	}
	return s.stackAlloc.alloc(abi.TCBBytes)
}

// Kill retires a thread, recycling its stack and TCB.
func (s *Scheduler) Kill(t *Thread) {
	t.State = ThreadDead
	if t.StackLow != 0 {
		s.freeStacks = append(s.freeStacks, t.StackLow)
		t.StackLow, t.StackTop = 0, 0
	}
	if t.TCB != 0 {
		s.freeTCBs = append(s.freeTCBs, t.TCB)
		t.TCB = 0
		if i, ok := slices.BinarySearch(s.tcbs, t.ID); ok {
			s.tcbs = slices.Delete(s.tcbs, i, i+1)
		}
	}
}

// LiveThreads reports non-dead threads (for deadlock diagnostics).
func (s *Scheduler) LiveThreads() int {
	n := 0
	for _, t := range s.threads {
		if t.State != ThreadDead {
			n++
		}
	}
	return n
}

// FindMarker scans threads round-robin for a stealable lazy marker and
// returns the owning thread, or nil. The scan order is deterministic:
// ascending id from the cursor, wrapping, over the threads holding a
// TCB (only those can hold a marker).
func (s *Scheduler) FindMarker() *Thread {
	k, _ := slices.BinarySearch(s.tcbs, s.stealRR)
	for i := range s.tcbs {
		t := s.threads[s.tcbs[(k+i)%len(s.tcbs)]]
		if t.State == ThreadDead {
			continue
		}
		bot, top := DequeBounds(s.Mem, t.TCB)
		if bot < top {
			s.stealRR = (t.ID + 1) % len(s.threads)
			return t
		}
	}
	return nil
}
