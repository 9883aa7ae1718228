package sim_test

// Differential and structural tests for the compiled execution tier
// (profile-guided basic-block superinstructions, internal/proc
// compile.go + internal/isa block.go). The tier's contract is the same
// as every other fast path in this simulator: bit-identical simulated
// results, only host speed changes. The matrix here pins the compiled
// tier against the reference tier (its differential oracle: the
// per-cycle loop and the opcode switch) across programs, memory systems,
// machine sizes, and translation thresholds — including the hostile
// cases: traps and asynchronous IPIs landing mid-block,
// future-strictness faults on operands inside a fused run, and blocks
// entered at interior PCs.

import (
	"fmt"
	"reflect"
	"testing"

	"april/internal/bench"
	"april/internal/core"
	"april/internal/isa"
	"april/internal/mult"
	"april/internal/proc"
	"april/internal/rts"
	"april/internal/sim"
)

type compiledOutcome struct {
	m      *sim.Machine
	prog   *isa.Program
	cycles uint64
	value  string
	stats  []proc.Stats
}

// runCompileSide builds, loads, and runs one machine, applying the
// tuning hooks (sim.Threshold, sim.LaneCap) before Load. cfg.Profile
// is forced to APRIL; everything else is the caller's.
func runCompileSide(t *testing.T, src string, cfg sim.Config, tune ...func(*sim.Machine)) compiledOutcome {
	t.Helper()
	cfg.Profile = rts.APRIL
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range tune {
		f(m)
	}
	prog, err := mult.Compile(src, mult.Mode{HardwareFutures: true}, m.StaticHeap())
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
	out := compiledOutcome{m: m, prog: prog, cycles: res.Cycles, value: res.Formatted}
	for _, n := range m.Nodes {
		out.stats = append(out.stats, n.Proc.Stats)
	}
	return out
}

func compareCompiled(t *testing.T, compiled, oracle compiledOutcome) {
	t.Helper()
	if compiled.cycles != oracle.cycles {
		t.Errorf("cycles: compiled %d != reference %d", compiled.cycles, oracle.cycles)
	}
	if compiled.value != oracle.value {
		t.Errorf("result: compiled %s != reference %s", compiled.value, oracle.value)
	}
	for i := range compiled.stats {
		if !reflect.DeepEqual(compiled.stats[i], oracle.stats[i]) {
			t.Errorf("node %d stats diverge:\ncompiled:  %+v\nreference: %+v",
				i, compiled.stats[i], oracle.stats[i])
		}
	}
}

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
// programs x memory systems x machine sizes x translation thresholds,
// compiled against the reference tier. Threshold 1 translates
// every entry PC on first execution, maximizing block coverage (and
// with it the chance of a trap or IPI landing mid-block); the default
// threshold exercises the profile-guided warmup.
func TestCompiledMatchesReference(t *testing.T) {
	programs := map[string]string{
		"fib":    bench.FibSource(12),
		"queens": bench.QueensSource(6),
	}
	for name, src := range programs {
		for _, alewife := range []bool{false, true} {
			for _, nodes := range []int{1, 4, 16} {
				for _, threshold := range []int{1, 0} {
					mode := "perfect"
					if alewife {
						mode = "alewife"
					}
					t.Run(fmt.Sprintf("%s/%s/%dp/threshold%d", name, mode, nodes, threshold), func(t *testing.T) {
						var aw *sim.AlewifeConfig
						if alewife {
							aw = &sim.AlewifeConfig{}
						}
						compiled := runCompileSide(t, src, sim.Config{Nodes: nodes, Alewife: aw}, sim.Threshold(threshold))
						oracle := runCompileSide(t, src, sim.Config{Nodes: nodes, Alewife: aw, Tier: sim.TierReference})
						compareCompiled(t, compiled, oracle)
						fused, inline := coverage(compiled.m)
						if fused+inline == 0 {
							t.Errorf("compiled tier never executed an op (fused %d, inline %d)", fused, inline)
						}
						if f, i := coverage(oracle.m); f+i != 0 {
							t.Errorf("oracle ran compile-tier ops (fused %d, inline %d), want none", f, i)
						}
					})
				}
			}
		}
	}
}

// TestCompiledHostileEventsMidBlock pins the scenarios the block
// executor must detect and unwind from: with threshold 1 nearly every
// dispatch is inside a translated block, so the eager-futures fib run
// forces future-strictness faults (a strict + on an unresolved future
// operand), full/empty touch traps on future cells, and — at several
// nodes — asynchronous IPIs, all landing mid-block. The run must still
// be bit-identical to the reference tier, and the trap counters prove
// the events actually fired inside the compiled run.
func TestCompiledHostileEventsMidBlock(t *testing.T) {
	src := bench.FibSource(12)
	compiled := runCompileSide(t, src, sim.Config{Nodes: 4}, sim.Threshold(1))
	oracle := runCompileSide(t, src, sim.Config{Nodes: 4, Tier: sim.TierReference})
	compareCompiled(t, compiled, oracle)

	var future, sync, ipi uint64
	for _, s := range compiled.stats {
		future += s.Traps[core.TrapFuture]
		sync += s.Traps[core.TrapEmpty]
		ipi += s.Traps[core.TrapIPI]
	}
	if future+sync == 0 {
		t.Error("run took no future/touch traps; the mid-block fault path was not exercised")
	}
	if fused, _ := coverage(compiled.m); fused == 0 {
		t.Error("no ops executed inside fused windows")
	}
	t.Logf("traps mid-run: future=%d touch=%d ipi=%d", future, sync, ipi)
}

// TestCompiledImagePurityAndSharing holds translation to the
// Predecode contract: discovering and executing blocks writes only the
// BlockSet's side tables, never the shared micro-op image — after a
// full compiled run the image still equals a fresh Predecode of the
// program. All nodes of a machine must also share one BlockSet (one
// translation, one profile) exactly as they share one image.
func TestCompiledImagePurityAndSharing(t *testing.T) {
	out := runCompileSide(t, bench.QueensSource(6), sim.Config{Nodes: 4}, sim.Threshold(1))
	bs := out.m.Nodes[0].Proc.Blocks()
	if bs == nil {
		t.Fatal("compiled tier not armed")
	}
	for i, n := range out.m.Nodes {
		if n.Proc.Blocks() != bs {
			t.Errorf("node %d has its own BlockSet; want the machine-wide shared one", i)
		}
	}
	if bs.Blocks == 0 {
		t.Fatal("no blocks were translated")
	}
	if fresh := out.prog.Predecode(); !reflect.DeepEqual(bs.Micro, fresh) {
		t.Error("translation mutated the shared predecoded image")
	}
}

// TestCompiledShardedIdentical runs the compiled tier, translating
// every block on first entry, on a 16-node machine against the
// reference tier. The cell keeps its name from when the machine could be
// sharded: "shards1" is the one goroutine that steps every node.
func TestCompiledShardedIdentical(t *testing.T) {
	src := bench.QueensSource(6)
	t.Run("shards1", func(t *testing.T) {
		compiled := runCompileSide(t, src, sim.Config{Nodes: 16}, sim.Threshold(1))
		oracle := runCompileSide(t, src, sim.Config{Nodes: 16, Tier: sim.TierReference})
		compareCompiled(t, compiled, oracle)
	})
}

// TestKindCountsTierInvariant pins the per-kind execution counters
// (the "isa" counter group) across both tiers: the reference switch
// interpreter and the compiled tier must count every dispatch
// identically.
func TestKindCountsTierInvariant(t *testing.T) {
	src := bench.QueensSource(6)
	compiled := runCompileSide(t, src, sim.Config{Nodes: 4}, sim.Threshold(1))
	reference := runCompileSide(t, src, sim.Config{Nodes: 4, Tier: sim.TierReference})
	ck := compiled.m.KindTotals()
	if rk := reference.m.KindTotals(); !reflect.DeepEqual(ck, rk) {
		t.Errorf("kind counts diverge: compiled %v != reference %v", ck, rk)
	}
}

// TestCompiledSteadyStateAllocRate pins the compiled tier's warmup
// contract: all translation state is sized at machine construction, so
// once the hot blocks are translated the fused executor allocates
// nothing — the steady-state allocation rate with the translator armed
// is the same (near) zero the per-op path achieves.
func TestCompiledSteadyStateAllocRate(t *testing.T) {
	m, err := sim.New(sim.Config{Nodes: 1, Profile: rts.APRIL})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := mult.Compile(bench.QueensSource(7), mult.Mode{HardwareFutures: true}, m.StaticHeap())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(prog); err != nil {
		t.Fatal(err)
	}
	// queens(7) runs ~690k cycles at one node; by 200k every hot block
	// is translated (default threshold 8) and the runtime's pools have
	// reached working size.
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
		t.Errorf("steady-state allocation rate %.5f allocs/cycle with translator armed, want ~0 (<= 0.01)", perCycle)
	}
	if fused, _ := coverage(m); fused == 0 {
		t.Error("no fused execution during the measured windows")
	}
}
