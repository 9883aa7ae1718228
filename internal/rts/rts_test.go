package rts

import (
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"april/internal/abi"
	"april/internal/core"
	"april/internal/isa"
	"april/internal/mem"
)

func newSched(t *testing.T, nodes int, lazy bool) *Scheduler {
	t.Helper()
	m := mem.New(16 << 20)
	l := mem.DefaultLayout(16 << 20)
	prof := APRIL
	return NewScheduler(m, &prof, lazy, nodes,
		mem.NewArena(l.StackBase, l.StackEnd),
		mem.NewArena(l.HeapStart, l.End), nil)
}

func TestReadyQueueLIFOAndSteal(t *testing.T) {
	s := newSched(t, 2, false)
	a := s.NewThread(0)
	b := s.NewThread(0)
	c := s.NewThread(0)
	s.PushReady(a)
	s.PushReady(b)
	s.PushReady(c)
	// Local pops are LIFO (newest first).
	if got := s.PopReadyLocal(0); got != c {
		t.Errorf("local pop = %d, want %d", got.ID, c.ID)
	}
	// Remote steals take the OLDEST.
	if got := s.StealReady(1); got != a {
		t.Errorf("steal = %d, want %d", got.ID, a.ID)
	}
	if got := s.PopReadyLocal(0); got != b {
		t.Errorf("local pop = %d, want %d", got.ID, b.ID)
	}
	if s.PopReadyLocal(0) != nil || s.StealReady(1) != nil {
		t.Error("queues should be empty")
	}
	if s.Stats.ThreadSteals != 1 {
		t.Errorf("steals = %d", s.Stats.ThreadSteals)
	}
}

func TestResolveWakesWaiters(t *testing.T) {
	s := newSched(t, 1, false)
	// Build a future by hand in memory.
	futAddr := uint32(0x100000) &^ 7
	s.Mem.MustSetFE(futAddr, false)
	fut := isa.MakeFuture(futAddr)

	w1 := s.NewThread(0)
	w2 := s.NewThread(0)
	s.AddWaiter(futAddr, w1)
	s.AddWaiter(futAddr, w2)
	if w1.State != ThreadBlocked || s.BlockedCount() != 2 {
		t.Error("waiters not blocked")
	}
	if err := s.Resolve(fut, isa.MakeFixnum(9)); err != nil {
		t.Fatal(err)
	}
	if !s.Mem.MustFE(futAddr) || isa.FixnumValue(s.Mem.MustLoad(futAddr)) != 9 {
		t.Error("future value/FE not set")
	}
	if s.ReadyCount() != 2 || s.BlockedCount() != 0 {
		t.Errorf("ready=%d blocked=%d after resolve", s.ReadyCount(), s.BlockedCount())
	}
	if w1.State != ThreadReady || w2.State != ThreadReady {
		t.Error("waiters not ready")
	}
	if err := s.Resolve(isa.Nil, 0); err == nil {
		t.Error("resolving a non-future succeeded")
	}
}

// TestWaiterListsImage: the waiter lists stay ascending by future
// address under block and resolve, an image carries them as they are,
// and a restore refuses an image whose lists are out of order or
// repeat an address (Resolve's binary search needs them ascending).
func TestWaiterListsImage(t *testing.T) {
	s := newSched(t, 1, false)
	addrs := []uint32{0x100040, 0x100000, 0x100080, 0x100020}
	for _, a := range addrs {
		s.Mem.MustSetFE(a, false)
		s.AddWaiter(a, s.NewThread(0))
	}
	if err := s.Resolve(isa.MakeFuture(0x100080), isa.MakeFixnum(1)); err != nil {
		t.Fatal(err)
	}
	var got []uint32
	s.ForEachWaiter(func(addr uint32, _ []int) { got = append(got, addr) })
	if want := []uint32{0x100000, 0x100020, 0x100040}; !slices.Equal(got, want) {
		t.Fatalf("waiter lists at %#x, want %#x", got, want)
	}
	img := s.DumpState()
	if err := newSched(t, 1, false).RestoreState(img); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]WaiterList{
		{img.Waiters[1], img.Waiters[0]},
		{img.Waiters[0], img.Waiters[0]},
	} {
		img.Waiters = bad
		if err := newSched(t, 1, false).RestoreState(img); err == nil {
			t.Errorf("restore took waiter lists at %#x and %#x", bad[0].Addr, bad[1].Addr)
		}
	}
}

func TestStackAllocationAndRecycling(t *testing.T) {
	s := newSched(t, 1, false)
	a := s.NewThread(0)
	if a.HasStack() {
		t.Error("thread born with stack")
	}
	if err := s.allocStack(a); err != nil {
		t.Fatal(err)
	}
	if !a.HasStack() || a.StackTop-a.StackLow != abi.StackBytes {
		t.Errorf("stack [%#x,%#x)", a.StackLow, a.StackTop)
	}
	if uint32(a.Regs[isa.RSP]) != a.StackTop || a.Regs[isa.RFP] != 0 {
		t.Error("sp/fp registers not initialized")
	}
	base := a.StackLow
	s.Kill(a)
	if a.State != ThreadDead || a.HasStack() {
		t.Error("kill did not clean up")
	}
	// The recycled chunk goes to the next thread.
	b := s.NewThread(0)
	if err := s.allocStack(b); err != nil {
		t.Fatal(err)
	}
	if b.StackLow != base {
		t.Errorf("stack not recycled: %#x vs %#x", b.StackLow, base)
	}
}

func TestLazyTCBSetup(t *testing.T) {
	s := newSched(t, 1, true)
	a := s.NewThread(0)
	if err := s.allocStack(a); err != nil {
		t.Fatal(err)
	}
	if a.TCB == 0 || uint32(a.Regs[isa.RTP]) != a.TCB {
		t.Fatal("lazy thread needs a TCB in RTP")
	}
	bot, top := DequeBounds(s.Mem, a.TCB)
	if bot != top || bot != a.TCB+abi.TCBDequeOff {
		t.Errorf("fresh deque bounds [%#x,%#x)", bot, top)
	}
	if isa.FixnumValue(s.Mem.MustLoad(a.TCB+abi.TCBIDOff)) != int32(a.ID) {
		t.Error("TCB id wrong")
	}
	// Eager mode allocates no TCB.
	se := newSched(t, 1, false)
	b := se.NewThread(0)
	if err := se.allocStack(b); err != nil {
		t.Fatal(err)
	}
	if b.TCB != 0 {
		t.Error("eager thread got a TCB")
	}
}

func TestFindMarker(t *testing.T) {
	s := newSched(t, 1, true)
	a := s.NewThread(0)
	if err := s.allocStack(a); err != nil {
		t.Fatal(err)
	}
	if s.FindMarker() != nil {
		t.Error("found marker in empty deque")
	}
	// Push a marker by hand.
	_, top := DequeBounds(s.Mem, a.TCB)
	s.Mem.MustStore(top+abi.MarkerPCOff, isa.MakeFixnum(123))
	s.Mem.MustStore(top+abi.MarkerSPOff, isa.Word(a.StackTop-64))
	s.Mem.MustStore(top+abi.MarkerStatusOff, isa.Word(a.StackTop-64+abi.FrameLocalsOff))
	s.Mem.MustStore(a.TCB+abi.TCBTopOff, isa.Word(top+abi.MarkerBytes))
	if got := s.FindMarker(); got != a {
		t.Errorf("FindMarker = %v, want thread %d", got, a.ID)
	}
	// Dead threads are skipped.
	tcb := a.TCB
	a.TCB = 0
	if s.FindMarker() != nil {
		t.Error("found marker on TCB-less thread")
	}
	a.TCB = tcb
	a.State = ThreadDead
	if s.FindMarker() != nil {
		t.Error("found marker on dead thread")
	}
}

func TestHeapChunks(t *testing.T) {
	s := newSched(t, 1, false)
	b1, l1, err := s.HeapChunk(0)
	if err != nil || l1-b1 != heapChunkBytes {
		t.Fatalf("chunk [%#x,%#x) err %v", b1, l1, err)
	}
	b2, _, err := s.HeapChunk(0)
	if err != nil || b2 == b1 {
		t.Fatalf("second chunk reused first")
	}
	// Oversized requests are honored.
	b3, l3, err := s.HeapChunk(heapChunkBytes * 3)
	if err != nil || l3-b3 < heapChunkBytes*3 {
		t.Fatalf("big chunk [%#x,%#x)", b3, l3)
	}
}

// TestHeapChunkFitsArena: a heap chunk is 256 KiB while two per node
// fit the heap arena, and 64 KiB once they do not.
func TestHeapChunkFitsArena(t *testing.T) {
	m := mem.New(4 << 20)
	prof := APRIL
	for nodes, want := range map[int]uint32{1: heapChunkBytes, 2: heapChunkBytes, 3: smallHeapChunkBytes, 8: smallHeapChunkBytes} {
		s := NewScheduler(m, &prof, false, nodes,
			mem.NewArena(0x2000, 0x80000), mem.NewArena(0x100000, 0x100000+4*heapChunkBytes), nil)
		if b, l, err := s.HeapChunk(0); err != nil || l-b != want {
			t.Errorf("%d nodes on a 1 MiB heap arena: chunk of %d bytes (err %v), want %d", nodes, l-b, err, want)
		}
	}
}

func TestOutOfStackMemoryError(t *testing.T) {
	m := mem.New(1 << 20)
	prof := APRIL
	s := NewScheduler(m, &prof, false, 1,
		mem.NewArena(0x2000, 0x2000+abi.StackBytes), // room for exactly one stack
		mem.NewArena(0x80000, 1<<20), nil)
	a := s.NewThread(0)
	if err := s.allocStack(a); err != nil {
		t.Fatal(err)
	}
	b := s.NewThread(0)
	err := s.allocStack(b)
	if err == nil || !strings.Contains(err.Error(), "stack") {
		t.Errorf("err = %v, want stack exhaustion", err)
	}
}

func TestProfileInvariants(t *testing.T) {
	// Paper-pinned numbers.
	if APRIL.SwitchCycles != 11 {
		t.Errorf("APRIL switch = %d, want 11 (Section 6.1)", APRIL.SwitchCycles)
	}
	if APRILCustom.SwitchCycles != 4 {
		t.Errorf("custom switch = %d, want 4", APRILCustom.SwitchCycles)
	}
	if APRIL.TouchResolvedHandler != 23 {
		t.Errorf("future-touch handler = %d, want 23 (Section 6.2)", APRIL.TouchResolvedHandler)
	}
	if APRIL.Frames != core.DefaultFrames || Encore.Frames != 1 {
		t.Error("frame counts wrong")
	}
	if !APRIL.HardwareFutures || Encore.HardwareFutures {
		t.Error("future-detection flags wrong")
	}
	// Encore task machinery costs roughly double APRIL's (Section 7).
	if Encore.FutureNew < 3*APRIL.FutureNew/2 {
		t.Error("Encore task creation should be substantially costlier")
	}
}

func TestThreadStateString(t *testing.T) {
	for st, want := range map[ThreadState]string{
		ThreadReady: "ready", ThreadLoaded: "loaded", ThreadBlocked: "blocked", ThreadDead: "dead",
	} {
		if st.String() != want {
			t.Errorf("%d -> %q", st, st.String())
		}
	}
}

// scanSteal is the steal probe without the nonempty-queue count: the
// dense scan every idle node once paid. It names the thread StealReady
// must take (nil when no other node has one) without taking it.
func scanSteal(s *Scheduler, node int) *Thread {
	n := len(s.ready)
	for d := 1; d < n; d++ {
		if q := s.ready[(node+d)%n]; len(q) > 0 {
			return s.threads[q[0]]
		}
	}
	return nil
}

// TestStealMatchesDenseScan drives a seeded mix of pushes, local pops
// and steals across 16 nodes, checking before every steal that the
// counted probe takes the thread the dense scan names, and after every
// operation that the count of nonempty queues is exact.
func TestStealMatchesDenseScan(t *testing.T) {
	const nodes = 16
	s := newSched(t, nodes, false)
	rng := rand.New(rand.NewPCG(7, 11))
	var idle []*Thread
	for i := 0; i < 48; i++ {
		idle = append(idle, s.NewThread(i%nodes))
	}
	for step := 0; step < 20000; step++ {
		node := rng.IntN(nodes)
		switch op := rng.IntN(4); {
		case op == 0 && len(idle) > 0:
			k := rng.IntN(len(idle))
			th := idle[k]
			idle = append(idle[:k], idle[k+1:]...)
			th.Home = node
			if rng.IntN(2) == 0 {
				s.PushReady(th)
			} else {
				s.PushReadyOldest(th)
			}
		case op == 1:
			if th := s.PopReadyLocal(node); th != nil {
				idle = append(idle, th)
			}
		default:
			want := scanSteal(s, node)
			if got := s.StealReady(node); got != want {
				t.Fatalf("step %d: node %d stole %v, dense scan names %v", step, node, got, want)
			}
			if want != nil {
				idle = append(idle, want)
			}
		}
		nonempty := 0
		for _, q := range s.ready {
			if len(q) > 0 {
				nonempty++
			}
		}
		if got := s.ReadyQueues(); got != nonempty {
			t.Fatalf("step %d: ReadyQueues %d, %d queues nonempty", step, got, nonempty)
		}
	}
}
