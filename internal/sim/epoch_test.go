package sim_test

// Differential and structural tests for the epoch engine (sim's
// epoch.go + proc's epoch.go): multi-node lockstep execution through
// the compiled tier across provably safe horizons, armed on perfect
// memory only. The engine's contract is bit-identical simulated results
// against every other tier, at any window cap, with mid-epoch fallbacks
// (an IPI, trap, or run-ending op inside a committed window's reach)
// resolved by refusing BEFORE the unsafe op rather than by rewinding
// after it.

import (
	"reflect"
	"testing"

	"april/internal/bench"
	"april/internal/fault"
	"april/internal/mult"
	"april/internal/rts"
	"april/internal/sim"
)

// TestEpochMatchesOracles is the engine's differential matrix: two
// programs (perfect memory and the full ALEWIFE memory system) run
// under the predecode and compiled tiers, the compiled tier also with
// its epoch windows capped at 1, 2 and 4 cycles. Every cell must agree
// with the reference tier on cycles, result, and every node's full
// statistics.
func TestEpochMatchesOracles(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		alewife bool
	}{
		{"fib-perfect", bench.FibSource(12), false},
		{"queens-alewife", bench.QueensSource(6), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mk := func(tier sim.Tier) sim.Config {
				cfg := sim.Config{Nodes: 8, Tier: tier}
				if tc.alewife {
					cfg.Alewife = &sim.AlewifeConfig{}
				}
				return cfg
			}
			ref := runCompileSide(t, tc.src, mk(sim.TierReference))
			rows := map[string]struct {
				tier sim.Tier
				cap  uint64
			}{
				"predecode": {sim.TierPredecode, 0},
				"epoch":     {sim.TierCompiled, 0},
				"epoch-k1":  {sim.TierCompiled, 1},
				"epoch-k2":  {sim.TierCompiled, 2},
				"epoch-k4":  {sim.TierCompiled, 4},
			}
			for name, row := range rows {
				t.Run(name, func(t *testing.T) {
					compareCompiled(t, runCompileSide(t, tc.src, mk(row.tier), sim.WindowCap(row.cap)), ref)
				})
			}
		})
	}
}

// TestEpochHorizonBoundaryDeliveries sweeps the window cap across
// every small value on a perfect-memory machine whose nodes sleep in
// multi-cycle traps and post IPIs. Wakes land at arbitrary cycles
// relative to the window grid, so the sweep puts them exactly ON a
// window boundary and one cycle INSIDE a would-be window at every
// alignment; all runs must stay bit-identical to the reference tier.
func TestEpochHorizonBoundaryDeliveries(t *testing.T) {
	src := bench.QueensSource(5)
	ref := runCompileSide(t, src, sim.Config{Nodes: 4, Tier: sim.TierReference})
	for k := uint64(0); k <= 6; k++ {
		out := runCompileSide(t, src, sim.Config{Nodes: 4}, sim.WindowCap(k))
		if out.cycles != ref.cycles || out.value != ref.value {
			t.Errorf("cap k=%d: cycles %d result %q, reference %d %q",
				k, out.cycles, out.value, ref.cycles, ref.value)
		}
		for i := range out.stats {
			if !reflect.DeepEqual(out.stats[i], ref.stats[i]) {
				t.Errorf("cap k=%d node %d stats diverge", k, i)
			}
		}
	}
}

// TestEpochUnsafeOpsForceFallback pins the mid-epoch fallback
// mechanism: on a multi-node machine the runtime's syscalls, IPIs
// (STIO is refused by EpochStep) and traps all land inside stretches
// the horizon bound would otherwise cover, so the engine must both
// commit real windows AND stop early for the unsafe ops — never reorder
// them. The run is held bit-identical by TestEpochMatchesOracles; here
// we assert the engine's telemetry shows both behaviors occurred.
func TestEpochUnsafeOpsForceFallback(t *testing.T) {
	out := runCompileSide(t, bench.QueensSource(6), sim.Config{Nodes: 8})
	et := out.m.EpochTelemetry()
	if et.Windows == 0 {
		t.Fatal("epoch engine committed no windows on an 8-node run")
	}
	if et.Cycles == 0 {
		t.Error("epoch windows committed no complete cycles")
	}
	if et.Fallbacks == 0 {
		t.Error("no mid-epoch fallbacks: unsafe ops (IPIs, syscalls, traps) cannot all have landed on window boundaries")
	}
	var windows uint64
	for _, c := range et.LenHist {
		windows += c
	}
	if windows != et.Windows {
		t.Errorf("length histogram sums to %d windows, telemetry says %d", windows, et.Windows)
	}
	var epochOps uint64
	for _, n := range out.m.Nodes {
		epochOps += n.Proc.EpochOps
	}
	if epochOps != et.Ops {
		t.Errorf("per-processor EpochOps sum %d != engine Ops %d", epochOps, et.Ops)
	}
	if et.Ops < et.Cycles {
		t.Errorf("Ops %d < Cycles %d: a committed cycle steps every stepper", et.Ops, et.Cycles)
	}
}

// TestEpochScope pins where windows open: on 8-node queens the
// compiled tier opens none on ALEWIFE, where its fused blocks still
// run (and reach cache hits through the clock-free port), and opens
// some on perfect memory.
func TestEpochScope(t *testing.T) {
	src := bench.QueensSource(6)
	alewife := runCompileSide(t, src, sim.Config{Nodes: 8, Alewife: &sim.AlewifeConfig{}})
	if w := alewife.m.EpochTelemetry().Windows; w != 0 {
		t.Errorf("ALEWIFE run opened %d epoch windows, want 0", w)
	}
	if fused, inline := coverage(alewife.m); fused+inline == 0 {
		t.Error("ALEWIFE run recorded no fused ops")
	}
	perfect := runCompileSide(t, src, sim.Config{Nodes: 8})
	if perfect.m.EpochTelemetry().Windows == 0 {
		t.Error("perfect-memory run opened no epoch windows")
	}
}

// TestEpochFaultsArmedIdentity runs seeded fault plans (hop jitter,
// link stalls, delayed directory replies) under every tier. Faults
// perturb only the ALEWIFE fabric, where the compiled tier opens no
// epoch window but its fused windows must still stop at every shifted
// delivery and recall deadline.
func TestEpochFaultsArmedIdentity(t *testing.T) {
	src := bench.QueensSource(5)
	for seed := uint64(1); seed <= 3; seed++ {
		fc := fault.Default(seed)
		mk := func(tier sim.Tier) sim.Config {
			f := fc
			return sim.Config{Nodes: 8, Alewife: &sim.AlewifeConfig{}, Faults: &f, Tier: tier}
		}
		ref := runCompileSide(t, src, mk(sim.TierReference))
		for _, tier := range []sim.Tier{sim.TierCompiled, sim.TierPredecode} {
			out := runCompileSide(t, src, mk(tier))
			if out.cycles != ref.cycles || out.value != ref.value {
				t.Errorf("seed %d: %v %d %q, reference %d %q",
					seed, tier, out.cycles, out.value, ref.cycles, ref.value)
			}
			for i := range out.stats {
				if !reflect.DeepEqual(out.stats[i], ref.stats[i]) {
					t.Errorf("seed %d %v node %d stats diverge under faults", seed, tier, i)
				}
			}
		}
	}
}

// TestEpochKindsTierInvariant: the per-micro-kind dispatch counters
// must be identical whether an op executed through EpochStep, the
// fused inline path, or plain per-op dispatch — a refused EpochStep
// must not pre-count the dispatch its fallback Step will count.
func TestEpochKindsTierInvariant(t *testing.T) {
	src := bench.QueensSource(6)
	on := runCompileSide(t, src, sim.Config{Nodes: 8})
	off := runCompileSide(t, src, sim.Config{Nodes: 8}, sim.WindowCap(1))
	if on.m.EpochTelemetry().Windows == 0 {
		t.Fatal("no epoch windows: the comparison would measure nothing")
	}
	if !reflect.DeepEqual(on.m.KindTotals(), off.m.KindTotals()) {
		t.Errorf("kind totals diverge:\nepoch:   %v\nno-epoch: %v",
			on.m.KindTotals(), off.m.KindTotals())
	}
}

// TestEpochSteadyStateAllocRate is the epoch-specific allocation
// guard: windows reuse the coordinator's existing scratch (no
// per-window state) and the telemetry is plain counters, so in steady
// state a 16-node perfect-memory run with the engine armed allocates
// no more per window than the same run with windows capped off. (The
// run itself still allocates a little as the runtime grows its task
// tree; the two machines do identical simulated work.)
func TestEpochSteadyStateAllocRate(t *testing.T) {
	allocs := func(tune ...func(*sim.Machine)) (float64, uint64) {
		m, err := sim.New(sim.Config{Nodes: 16, Profile: rts.APRIL})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range tune {
			f(m)
		}
		prog, err := mult.Compile(bench.QueensSource(8), mult.Mode{HardwareFutures: true}, m.StaticHeap())
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Load(prog); err != nil {
			t.Fatal(err)
		}
		// queens(8) runs ~197k cycles at 16 nodes; 1 warm-up + 5
		// measured windows end at 130k.
		if done, err := m.RunWindow(100_000); err != nil || done {
			t.Fatalf("warm-up: done %v, err %v", done, err)
		}
		before := m.EpochTelemetry().Windows
		var werr error
		perWindow := testing.AllocsPerRun(5, func() {
			if _, err := m.RunWindow(5_000); err != nil {
				werr = err
			}
		})
		if werr != nil {
			t.Fatal(werr)
		}
		return perWindow, m.EpochTelemetry().Windows - before
	}
	on, windows := allocs()
	off, _ := allocs(sim.WindowCap(1))
	t.Logf("allocs per 5000-cycle window: %.0f with %d epoch windows, %.0f with none", on, windows, off)
	if windows == 0 {
		t.Fatal("epoch engine idle in the measured windows: the guard would measure nothing")
	}
	if on > off {
		t.Errorf("epoch windows add %.0f allocations per 5000 cycles", on-off)
	}
}
