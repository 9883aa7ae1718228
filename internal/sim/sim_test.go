package sim_test

import (
	"strings"
	"testing"

	"april/internal/core"
	"april/internal/isa"
	"april/internal/network"
	"april/internal/rts"
	"april/internal/sim"
)

const fibSrc = `
(define (fib n)
  (if (< n 2) n (+ (future (fib (- n 1))) (future (fib (- n 2))))))
(fib 11)`

func TestPerfectMemoryMultiprocessor(t *testing.T) {
	m := build(t, fibSrc, sim.Config{Nodes: 4})
	res := finish(t, m)
	if res.Formatted != "89" {
		t.Errorf("fib 11 = %s", res.Formatted)
	}
	// All four processors should have done useful work.
	for _, n := range m.Nodes {
		if n.Proc.Stats.Instructions == 0 {
			t.Errorf("node %d retired no instructions", n.Proc.ID)
		}
	}
}

func TestAlewifeModeRunsCorrectly(t *testing.T) {
	for _, nodes := range []int{1, 4, 8} {
		m := build(t, fibSrc, sim.Config{Nodes: nodes, Alewife: &sim.AlewifeConfig{}})
		res := finish(t, m)
		if res.Formatted != "89" {
			t.Errorf("nodes=%d: fib 11 = %s", nodes, res.Formatted)
		}
		stats := m.TotalStats()
		if stats.Traps[core.TrapCacheMiss] == 0 && nodes > 1 {
			t.Errorf("nodes=%d: no cache-miss traps in ALEWIFE mode", nodes)
		}
	}
}

func TestAlewifeMatchesPerfectResults(t *testing.T) {
	srcs := []string{
		`(define v (make-vector 32 0))
		 (let fill ((i 0)) (when (< i 32) (vector-set! v i (* i i)) (fill (+ i 1))))
		 (let sum ((i 0) (acc 0)) (if (= i 32) acc (sum (+ i 1) (+ acc (vector-ref v i)))))`,
		`(define (tree n) (if (= n 0) 1 (+ (future (tree (- n 1))) (future (tree (- n 1))))))
		 (tree 5)`,
	}
	for _, src := range srcs {
		perfect := finish(t, build(t, src, sim.Config{Nodes: 4}))
		alewife := finish(t, build(t, src, sim.Config{Nodes: 4, Alewife: &sim.AlewifeConfig{}}))
		if perfect.Formatted != alewife.Formatted {
			t.Errorf("ALEWIFE result %s != perfect %s", alewife.Formatted, perfect.Formatted)
		}
		if alewife.Cycles <= perfect.Cycles {
			t.Errorf("ALEWIFE (%d cycles) should be slower than perfect memory (%d)", alewife.Cycles, perfect.Cycles)
		}
	}
}

func TestAlewifeLazyFutures(t *testing.T) {
	res := finish(t, build(t, fibSrc, sim.Config{Nodes: 4, Lazy: true, Alewife: &sim.AlewifeConfig{}}))
	if res.Formatted != "89" {
		t.Errorf("lazy alewife fib = %s", res.Formatted)
	}
}

func TestAlewifeIdealNetwork(t *testing.T) {
	res := finish(t, build(t, fibSrc, sim.Config{Nodes: 4, Alewife: &sim.AlewifeConfig{IdealNet: true, IdealLat: 20}}))
	if res.Formatted != "89" {
		t.Errorf("ideal-net fib = %s", res.Formatted)
	}
}

func TestCacheMissForcesContextSwitch(t *testing.T) {
	// Two eager tasks sharing a vector across 2 nodes must generate
	// coherence traffic and cache-miss context switches.
	src := `
(define v (make-vector 64 1))
(define (sum-range lo hi)
  (let loop ((i lo) (acc 0)) (if (= i hi) acc (loop (+ i 1) (+ acc (vector-ref v i))))))
(define (bump-range lo hi)
  (let loop ((i lo)) (if (= i hi) 0 (begin (vector-set! v i (+ (vector-ref v i) 1)) (loop (+ i 1))))))
(+ (future (bump-range 0 64))
   (let wait ((k 0)) (if (< k 200) (wait (+ k 1)) (sum-range 0 64))))`
	m := build(t, src, sim.Config{Nodes: 2, Alewife: &sim.AlewifeConfig{}})
	finish(t, m)
	stats := m.TotalStats()
	if stats.Traps[core.TrapCacheMiss] == 0 {
		t.Error("expected remote-miss context switches")
	}
}

func TestDeadlockDetection(t *testing.T) {
	// A program that blocks forever on an empty I-structure slot.
	src := `
(define v (make-ivector 1))
(vector-ref-sync v 0)`
	m := build(t, src, sim.Config{Nodes: 1, Profile: rts.APRIL})
	if _, err := m.Run(); err == nil {
		t.Fatal("deadlocked program terminated successfully")
	} else if !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestProducerConsumerAcrossNodes(t *testing.T) {
	// Fine-grain synchronization through full/empty bits between two
	// tasks on an ALEWIFE machine (Section 3.3).
	src := `
(define v (make-ivector 8))
(define (produce i)
  (if (= i 8) 0 (begin (vector-set-sync! v i (* i 10)) (produce (+ i 1)))))
(define (consume i acc)
  (if (= i 8) acc (consume (+ i 1) (+ acc (vector-ref-sync v i)))))
(+ (future (produce 0)) (consume 0 0))`
	for _, alewife := range []*sim.AlewifeConfig{nil, {}} {
		res := finish(t, build(t, src, sim.Config{Nodes: 2, Alewife: alewife}))
		if res.Formatted != "280" {
			t.Errorf("alewife=%v: got %s, want 280", alewife != nil, res.Formatted)
		}
	}
}

func TestIPIDeliveryThroughIO(t *testing.T) {
	// Drive the memory-mapped IPI interface directly with a raw
	// program: node 0 sends itself an interrupt.
	m, err := sim.New(sim.Config{Nodes: 2, Profile: rts.APRIL})
	if err != nil {
		t.Fatal(err)
	}
	code := []isa.Inst{
		isa.MovI(8, isa.MakeFixnum(1)), // target node 1
		isa.St(isa.OpStio, isa.RZero, sim.IOIPITarget, 8),
		isa.MovI(9, isa.MakeFixnum(77)), // payload
		isa.St(isa.OpStio, isa.RZero, sim.IOIPISend, 9),
		isa.Halt,
	}
	_ = code
	// The IO port is exercised through the processor directly.
	p0 := m.Nodes[0].Proc
	if _, err := p0.IO.StoreIO(sim.IOIPITarget, isa.MakeFixnum(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := p0.IO.StoreIO(sim.IOIPISend, isa.MakeFixnum(77)); err != nil {
		t.Fatal(err)
	}
	if m.Nodes[1].Proc.PendingIPIs() != 1 {
		t.Error("IPI not queued at target")
	}
	if w, _, err := p0.IO.LoadIO(sim.IONodeID); err != nil || isa.FixnumValue(w) != 0 {
		t.Errorf("node id read = %v, %v", w, err)
	}
	if w, _, err := p0.IO.LoadIO(sim.IONodeCount); err != nil || isa.FixnumValue(w) != 2 {
		t.Errorf("node count read = %v, %v", w, err)
	}
}

func TestBlockTransfer(t *testing.T) {
	m, err := sim.New(sim.Config{Nodes: 2, Profile: rts.APRIL})
	if err != nil {
		t.Fatal(err)
	}
	// Fill a source region, including an empty full/empty bit.
	src, dst := uint32(0x300000), uint32(0x340000)
	for i := uint32(0); i < 16; i++ {
		m.Mem.MustStore(src+4*i, isa.MakeFixnum(int32(i*i)))
	}
	m.Mem.MustSetFE(src+8, false)

	io := m.Nodes[0].Proc.IO
	for _, w := range []struct {
		addr uint32
		val  isa.Word
	}{
		{sim.IOBTSrc, isa.Word(src)},
		{sim.IOBTDst, isa.Word(dst)},
		{sim.IOBTLen, isa.Word(64)},
		{sim.IOBTGo, 0},
	} {
		if _, err := io.StoreIO(w.addr, w.val); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint32(0); i < 16; i++ {
		got := m.Mem.MustLoad(dst + 4*i)
		if isa.FixnumValue(got) != int32(i*i) {
			t.Errorf("word %d = %v", i, got)
		}
	}
	if m.Mem.MustFE(dst + 8) {
		t.Error("full/empty bit not transferred")
	}
	// The engine reports busy until the modeled duration elapses.
	if w, _, _ := io.LoadIO(sim.IOBTStatus); isa.FixnumValue(w) != 1 {
		t.Error("transfer should read busy immediately after start")
	}
	// Unaligned transfers are rejected.
	io.StoreIO(sim.IOBTLen, isa.Word(6))
	if _, err := io.StoreIO(sim.IOBTGo, 0); err == nil {
		t.Error("unaligned transfer accepted")
	}
}

// TestAlewifeDerivedGeometry pins the shapes sim.New derives from a
// node count alone: a cube, else a square, else a ring of at most 64
// nodes. A longer ring is refused with an error naming the nearest
// cubes; the same count with an explicit geometry is accepted.
func TestAlewifeDerivedGeometry(t *testing.T) {
	shapes := map[int]network.Geometry{
		2:    {Dim: 1, Radix: 2},
		16:   {Dim: 2, Radix: 4},
		64:   {Dim: 3, Radix: 4},
		1000: {Dim: 3, Radix: 10},
	}
	for nodes, want := range shapes {
		aw := &sim.AlewifeConfig{}
		if _, err := sim.New(sim.Config{Nodes: nodes, Profile: rts.APRIL, MemoryBytes: 1 << 30, Alewife: aw}); err != nil {
			t.Fatalf("%d nodes: %v", nodes, err)
		}
		if aw.Geometry != want {
			t.Errorf("%d nodes: geometry %+v, want %+v", nodes, aw.Geometry, want)
		}
	}
	_, err := sim.New(sim.Config{Nodes: 128, Profile: rts.APRIL, Alewife: &sim.AlewifeConfig{}})
	if err == nil || !strings.Contains(err.Error(), "use 125 or 216 nodes") {
		t.Errorf("128 nodes: err %v, want a refusal naming 125 and 216", err)
	}
	ring := &sim.AlewifeConfig{Geometry: network.Geometry{Dim: 1, Radix: 128}}
	if _, err := sim.New(sim.Config{Nodes: 128, Profile: rts.APRIL, Alewife: ring}); err != nil {
		t.Errorf("128 nodes on an explicit ring: %v", err)
	}
}
