package sim_test

import (
	"testing"

	"april/internal/isa"
	"april/internal/rts"
	"april/internal/sim"
)

// Runtime policy behavior observed end to end through scheduler
// statistics.

func TestTouchBlocksAndWakes(t *testing.T) {
	// Single processor, eager futures: the parent must eventually BLOCK
	// on its children (switch-spinning alone cannot make progress when
	// the resolver is unloaded), and resolution must WAKE it.
	src := `
(define (fib n) (if (< n 2) n (+ (future (fib (- n 1))) (future (fib (- n 2))))))
(fib 8)`
	m := build(t, src, sim.Config{Nodes: 1})
	res := finish(t, m)
	if res.Formatted != "21" {
		t.Fatalf("fib 8 = %s", res.Formatted)
	}
	s := m.Sched.Stats
	if s.Blocks == 0 {
		t.Error("no threads ever blocked on futures")
	}
	if s.Wakes < s.Blocks {
		t.Errorf("wakes (%d) < blocks (%d): some blocked thread never woke", s.Wakes, s.Blocks)
	}
	if s.TouchesUnresolved == 0 || s.TouchesResolved == 0 {
		t.Errorf("touch stats: resolved=%d unresolved=%d", s.TouchesResolved, s.TouchesUnresolved)
	}
}

func TestSwitchSpinningPrecedesBlocking(t *testing.T) {
	// With 4 frames, the runtime switch-spins before unloading: the
	// engine's switch count must exceed the number of blocks by a
	// healthy margin.
	src := `
(define (fib n) (if (< n 2) n (+ (future (fib (- n 1))) (future (fib (- n 2))))))
(fib 10)`
	m := build(t, src, sim.Config{Nodes: 2})
	finish(t, m)
	var switches uint64
	for _, n := range m.Nodes {
		switches += n.Proc.Engine.Switches
	}
	if switches <= m.Sched.Stats.Blocks {
		t.Errorf("switches (%d) should exceed blocks (%d): switch-spinning is the first response",
			switches, m.Sched.Stats.Blocks)
	}
}

func TestSyncFaultRequeue(t *testing.T) {
	// A consumer spinning on an empty I-structure slot on a single
	// frame must be requeued so the producer can run.
	src := `
(define v (make-ivector 1))
(define p (future (vector-set-sync! v 0 99)))
(vector-ref-sync v 0)`
	prof := rts.APRIL
	prof.Frames = 1
	m := build(t, src, sim.Config{Nodes: 1, Profile: prof})
	res := finish(t, m)
	if res.Formatted != "99" {
		t.Fatalf("got %s", res.Formatted)
	}
	if m.Sched.Stats.Requeues == 0 {
		t.Error("single-frame sync fault never requeued the thread")
	}
}

func TestLazyStealsAccountStackCopies(t *testing.T) {
	src := `
(define (fib n) (if (< n 2) n (+ (future (fib (- n 1))) (future (fib (- n 2))))))
(fib 13)`
	m := build(t, src, sim.Config{Nodes: 4, Lazy: true})
	finish(t, m)
	s := m.Sched.Stats
	if s.Steals == 0 {
		t.Fatal("no steals on a 4-node lazy run")
	}
	if s.StealWords == 0 {
		t.Error("steals recorded no copied stack words")
	}
	if s.TasksCreated != 0 {
		t.Error("lazy mode created eager tasks")
	}
}

func TestIPIHookDelivery(t *testing.T) {
	m, err := sim.New(sim.Config{Nodes: 2, Profile: rts.APRIL})
	if err != nil {
		t.Fatal(err)
	}
	var got []isa.Word
	m.Nodes[1].RT.IPIHook = func(w isa.Word) { got = append(got, w) }

	// An assembly main on node 0 that IPIs node 1 and returns.
	prog, err := isa.Assemble(`
.entry main
main:   movi r8, 4           ; fixnum 1: target node
        stio [r0+16], r8     ; IOIPITarget
        movi r9, 84          ; fixnum 21: payload
        stio [r0+20], r9     ; IOIPISend
        movi r8, 0
        jmpl r0, r5+0
__task_exit: trap 2
        halt
__main_exit: trap 1
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(prog); err != nil {
		t.Fatal(err)
	}
	// Give node 1 something to run so its processor steps and takes
	// the asynchronous trap.
	m.SpawnRaw(1, 0, nil)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || isa.FixnumValue(got[0]) != 21 {
		t.Errorf("IPI hook received %v", got)
	}
}

func TestFlushAndFenceWithCaches(t *testing.T) {
	// FLUSH on a dirty line raises the fence counter until the home
	// acknowledges (Section 3.4's software-enforced coherence).
	m, err := sim.New(sim.Config{Nodes: 2, Profile: rts.APRIL, Alewife: &sim.AlewifeConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	// Pick an address homed on node 1 so the writeback crosses the
	// network (block interleave: block 1 -> node 1).
	addr := uint32(0x300010)
	prog, err := isa.Assemble(`
.entry main
main:   movi r9, 0x300010
        movi r10, 28          ; fixnum 7
        stnt [r9+0], r10      ; dirty the line (write miss first)
        flush [r9+0]          ; write back + invalidate
        ldio r8, [r0+0]       ; read the fence counter
        jmpl r0, r5+0
__task_exit: trap 2
        halt
__main_exit: trap 1
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(prog); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The fence read races the FlushAck; it must read 0 or 1, and the
	// flushed value must be durably in memory.
	if res.Formatted != "0" && res.Formatted != "1" {
		t.Errorf("fence read %s", res.Formatted)
	}
	if got := isa.FixnumValue(m.Mem.MustLoad(addr)); got != 7 {
		t.Errorf("flushed value = %d", got)
	}
}
