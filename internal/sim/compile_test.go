package sim_test

// Differential and structural tests for the compiled execution tier
// (superinstruction handlers and the run-ahead loop, internal/proc
// compile.go). The tier's contract is the same as every other fast
// path in this simulator: bit-identical simulated results, only host
// speed changes. The matrix here pins the compiled tier against the
// reference tier (its differential oracle: the per-cycle loop and the
// opcode switch) across programs, memory systems and machine sizes,
// including the hostile cases: traps and asynchronous IPIs landing
// inside an isolated window, and future-strictness faults on operands
// the superinstruction handlers refuse.

import (
	"fmt"
	"reflect"
	"testing"

	"april/internal/bench"
	"april/internal/core"
	"april/internal/sim"
)

// coverage sums the compile tier's two execution counters: ops run
// inside fused windows and single Steps resolved by the
// superinstruction handlers.
func coverage(m *sim.Machine) (fused, inline uint64) {
	for _, n := range m.Nodes {
		fused += n.Proc.FusedOps
		inline += n.Proc.InlineSteps
	}
	return fused, inline
}

// TestCompiledMatchesReference is the tier's differential matrix:
// programs x memory systems x machine sizes, compiled against the
// reference tier.
func TestCompiledMatchesReference(t *testing.T) {
	programs := map[string]string{
		"fib":    bench.FibSource(12),
		"queens": bench.QueensSource(6),
	}
	for name, src := range programs {
		for _, alewife := range []bool{false, true} {
			for _, nodes := range []int{1, 4, 16} {
				mode := "perfect"
				if alewife {
					mode = "alewife"
				}
				t.Run(fmt.Sprintf("%s/%s/%dp", name, mode, nodes), func(t *testing.T) {
					var aw *sim.AlewifeConfig
					if alewife {
						aw = &sim.AlewifeConfig{}
					}
					compiled, oracle := diverge(t,
						func() *sim.Machine { return build(t, src, sim.Config{Nodes: nodes, Alewife: aw}) },
						func() *sim.Machine {
							return build(t, src, sim.Config{Nodes: nodes, Alewife: aw, Tier: sim.TierReference})
						}, whole)
					fused, inline := coverage(compiled)
					if fused+inline == 0 {
						t.Errorf("compiled tier never executed an op (fused %d, inline %d)", fused, inline)
					}
					if f, i := coverage(oracle); f+i != 0 {
						t.Errorf("oracle ran compile-tier ops (fused %d, inline %d), want none", f, i)
					}
				})
			}
		}
	}
}

// TestCompiledHostileEventsMidWindow pins the scenarios the run-ahead
// loop must detect and unwind from inside an isolated window: the
// eager-futures fib run forces future-strictness faults (a strict + on
// an unresolved future operand), full/empty touch traps on future
// cells, and, at several nodes, asynchronous IPIs. The run must still
// be bit-identical to the reference tier, and the trap counters prove
// the events actually fired inside the compiled run.
func TestCompiledHostileEventsMidWindow(t *testing.T) {
	src := bench.FibSource(12)
	compiled, _ := diverge(t, func() *sim.Machine { return build(t, src, sim.Config{Nodes: 4}) },
		func() *sim.Machine { return build(t, src, sim.Config{Nodes: 4, Tier: sim.TierReference}) }, whole)

	traps := compiled.TotalStats().Traps
	future, sync, ipi := traps[core.TrapFuture], traps[core.TrapEmpty], traps[core.TrapIPI]
	if future+sync == 0 {
		t.Error("run took no future/touch traps; the mid-window fault path was not exercised")
	}
	if fused, _ := coverage(compiled); fused == 0 {
		t.Error("no ops executed inside fused windows")
	}
	t.Logf("traps mid-run: future=%d touch=%d ipi=%d", future, sync, ipi)
}

// TestCompiledImagePurityAndSharing holds the compiled tier to the
// Predecode contract: every node of a machine runs from one predecoded
// image, and after a full compiled run that image still equals a fresh
// Predecode of the program.
func TestCompiledImagePurityAndSharing(t *testing.T) {
	m := build(t, bench.QueensSource(6), sim.Config{Nodes: 4})
	finish(t, m)
	img := m.Nodes[0].Proc.Image()
	if img == nil {
		t.Fatal("compiled tier not armed")
	}
	for i, n := range m.Nodes {
		if got := n.Proc.Image(); len(got) != len(img) || &got[0] != &img[0] {
			t.Errorf("node %d has its own image; want the machine-wide shared one", i)
		}
	}
	if fresh := m.Nodes[0].Proc.Prog.Predecode(); !reflect.DeepEqual(img, fresh) {
		t.Error("the run mutated the shared predecoded image")
	}
}

// TestKindCountsTierInvariant pins the per-kind execution counters
// (the "isa" counter group, each node's Kinds in the image) across
// both tiers: the reference switch interpreter and the compiled tier
// must count every dispatch identically.
func TestKindCountsTierInvariant(t *testing.T) {
	src := bench.QueensSource(6)
	diverge(t, func() *sim.Machine { return build(t, src, sim.Config{Nodes: 4}) },
		func() *sim.Machine { return build(t, src, sim.Config{Nodes: 4, Tier: sim.TierReference}) }, whole)
}

// TestCompiledSteadyStateAllocRate pins the compiled tier's steady
// state: the image is built once at Load, so once the runtime's pools
// reach working size the run-ahead loop allocates nothing, the same
// (near) zero the per-op path achieves.
func TestCompiledSteadyStateAllocRate(t *testing.T) {
	m := build(t, bench.QueensSource(7), sim.Config{Nodes: 1})
	// queens(7) runs ~690k cycles at one node; by 200k the runtime's
	// pools have reached working size.
	if done, err := m.RunWindow(200_000); err != nil {
		t.Fatal(err)
	} else if done {
		t.Fatal("program finished during warm-up")
	}
	const window = 20_000
	var werr error
	run := func() {
		if _, err := m.RunWindow(window); err != nil {
			werr = err
		}
	}
	// 6 windows (1 warm-up + 5 measured) end at cycle 320k, well inside
	// the run.
	allocsPerWindow := testing.AllocsPerRun(5, run)
	if werr != nil {
		t.Fatal(werr)
	}
	perCycle := allocsPerWindow / window
	t.Logf("steady state: %.1f allocs per %d-cycle window (%.5f allocs/cycle)", allocsPerWindow, window, perCycle)
	if perCycle > 0.01 {
		t.Errorf("steady-state allocation rate %.5f allocs/cycle on the compiled tier, want ~0 (<= 0.01)", perCycle)
	}
	if fused, _ := coverage(m); fused == 0 {
		t.Error("no fused execution during the measured windows")
	}
}
