package sim_test

// Differential and structural tests for the epoch engine (sim's
// epoch.go + proc's epoch.go): multi-node lockstep execution through
// the compiled tier across provably safe horizons. The engine's
// contract is the strongest one in the simulator — bit-identical
// simulated results against every other execution mode, at any
// horizon cap, with mid-epoch fallbacks (an IPI, trap,
// miss, or run-ending op inside a committed window's reach) resolved
// by refusing BEFORE the unsafe op rather than by rewinding after it.

import (
	"reflect"
	"testing"

	"april/internal/bench"
	"april/internal/fault"
	"april/internal/rts"
	"april/internal/sim"
)

// TestEpochMatchesOracles is the engine's differential matrix: two
// programs (perfect memory and the full ALEWIFE memory system) run
// through all four execution modes — reference, predecode, compiled
// with epochs off, compiled with epochs on — crossed with horizon caps.
// Every cell must agree with the reference row on
// cycles, result, and every node's full statistics.
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
			mk := func(mut func(*sim.Config)) sim.Config {
				cfg := sim.Config{Nodes: 8}
				if tc.alewife {
					cfg.Alewife = &sim.AlewifeConfig{}
				}
				mut(&cfg)
				return cfg
			}
			ref := runCompileSide(t, tc.src, mk(func(c *sim.Config) {
				c.DisableFastForward, c.DisablePredecode = true, true
			}))
			rows := map[string]sim.Config{
				"predecode":        mk(func(c *sim.Config) { c.DisableCompile = true }),
				"compiled-noepoch": mk(func(c *sim.Config) { c.DisableEpoch = true }),
				"epoch":            mk(func(c *sim.Config) {}),
				"epoch-k1":         mk(func(c *sim.Config) { c.Horizon = 1 }),
				"epoch-k2":         mk(func(c *sim.Config) { c.Horizon = 2 }),
				"epoch-k4":         mk(func(c *sim.Config) { c.Horizon = 4 }),
			}
			for name, cfg := range rows {
				t.Run(name, func(t *testing.T) {
					compareCompiled(t, runCompileSide(t, tc.src, cfg), ref)
				})
			}
		})
	}
}

// TestEpochHorizonBoundaryDeliveries sweeps the horizon cap across
// every small value on a machine with live coherence traffic. Remote
// misses put deliveries, outbox maturations, and recalls at arbitrary
// cycles relative to the window grid, so the sweep forces events to
// land exactly ON a window boundary and one cycle INSIDE a would-be
// window at every alignment; all runs must stay bit-identical.
func TestEpochHorizonBoundaryDeliveries(t *testing.T) {
	src := bench.QueensSource(5)
	base := sim.Config{Nodes: 4, Alewife: &sim.AlewifeConfig{}}
	ref := runCompileSide(t, src, sim.Config{
		Nodes: 4, Alewife: &sim.AlewifeConfig{},
		DisableFastForward: true, DisablePredecode: true,
	})
	for k := uint64(0); k <= 6; k++ {
		cfg := base
		cfg.Horizon = k
		out := runCompileSide(t, src, cfg)
		if out.cycles != ref.cycles || out.value != ref.value {
			t.Errorf("horizon k=%d: cycles %d result %q, reference %d %q",
				k, out.cycles, out.value, ref.cycles, ref.value)
		}
		for i := range out.stats {
			if !reflect.DeepEqual(out.stats[i], ref.stats[i]) {
				t.Errorf("horizon k=%d node %d stats diverge", k, i)
			}
		}
	}
}

// TestEpochUnsafeOpsForceFallback pins the mid-epoch fallback
// mechanism: on a multi-node machine the runtime's syscalls, IPIs
// (STIO is refused by EpochStep), traps, and cache
// misses all land inside stretches the horizon bound would otherwise
// cover, so the engine must both commit real windows AND stop early
// for the unsafe ops — never reorder them. The run is held
// bit-identical by TestEpochMatchesOracles; here we assert the
// engine's telemetry shows both behaviors actually occurred.
func TestEpochUnsafeOpsForceFallback(t *testing.T) {
	out := runCompileSide(t, bench.QueensSource(6), sim.Config{
		Nodes: 8, Alewife: &sim.AlewifeConfig{},
	})
	et := out.m.EpochTelemetry()
	if et.Windows == 0 {
		t.Fatal("epoch engine committed no windows on an 8-node run")
	}
	if et.Cycles == 0 {
		t.Error("epoch windows committed no complete cycles")
	}
	if et.Fallbacks == 0 {
		t.Error("no mid-epoch fallbacks: unsafe ops (IPIs, syscalls, misses) cannot all have landed on window boundaries")
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

// TestEpochFaultsArmedIdentity runs a seeded fault plan (hop jitter,
// link stalls, delayed directory replies) with epochs on and off. The
// perturbations move deliveries and recall deadlines around, and the
// horizon bound must track them exactly: interlocked blocks with
// deferred recalls refuse epoch hits, and every shifted event still
// lands outside (or terminates) its window.
func TestEpochFaultsArmedIdentity(t *testing.T) {
	src := bench.QueensSource(5)
	for seed := uint64(1); seed <= 3; seed++ {
		fc := fault.Default(seed)
		mk := func(disable bool) sim.Config {
			f := fc
			return sim.Config{
				Nodes: 8, Profile: rts.APRIL,
				Alewife: &sim.AlewifeConfig{}, Faults: &f,
				DisableEpoch: disable,
			}
		}
		on := runCompileSide(t, src, mk(false))
		off := runCompileSide(t, src, mk(true))
		if on.cycles != off.cycles || on.value != off.value {
			t.Errorf("seed %d: epoch on %d %q, off %d %q",
				seed, on.cycles, on.value, off.cycles, off.value)
		}
		for i := range on.stats {
			if !reflect.DeepEqual(on.stats[i], off.stats[i]) {
				t.Errorf("seed %d node %d stats diverge under faults", seed, i)
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
	cfg := func(disable bool) sim.Config {
		return sim.Config{Nodes: 8, Alewife: &sim.AlewifeConfig{}, DisableEpoch: disable}
	}
	on := runCompileSide(t, src, cfg(false))
	off := runCompileSide(t, src, cfg(true))
	if !reflect.DeepEqual(on.m.KindTotals(), off.m.KindTotals()) {
		t.Errorf("kind totals diverge:\nepoch:   %v\nno-epoch: %v",
			on.m.KindTotals(), off.m.KindTotals())
	}
}

// TestEpochSteadyStateAllocRate is the epoch-specific allocation
// guard: with the engine armed (the default) a 64-node ALEWIFE run's
// steady state must stay at zero allocations per cycle — windows
// reuse the coordinator's existing scratch (no per-window state), and
// the telemetry is plain counters.
func TestEpochSteadyStateAllocRate(t *testing.T) {
	m := loadedQueens64(t)
	if done, err := m.RunWindow(26_000); err != nil {
		t.Fatal(err)
	} else if done {
		t.Fatal("program finished during warm-up")
	}
	if m.EpochTelemetry().Windows == 0 {
		t.Fatal("epoch engine idle during warm-up: the guard would measure nothing")
	}
	const window = 600
	var werr error
	run := func() {
		if _, err := m.RunWindow(window); err != nil {
			werr = err
		}
	}
	allocsPerWindow := testing.AllocsPerRun(5, run)
	if werr != nil {
		t.Fatal(werr)
	}
	perCycle := allocsPerWindow / window
	t.Logf("epoch steady state: %.1f allocs per %d-cycle window (%.4f allocs/cycle)",
		allocsPerWindow, window, perCycle)
	if perCycle > 0.01 {
		t.Errorf("steady-state allocation rate %.4f allocs/cycle with epochs armed, want ~0 (<= 0.01)", perCycle)
	}
}
