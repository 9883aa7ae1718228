package sim_test

// Fault-injection tests: seeded perturbations must shift timing without
// changing results, both run loops must agree cycle-for-cycle under the
// same plan, the checkers must be invisible to clean runs, and an
// induced wedge must die with a structured crash report instead of a
// bare string.

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"april/internal/bench"
	"april/internal/fault"
	"april/internal/network"
	"april/internal/rts"
	"april/internal/sim"
)

// TestInvariantFaultDifferential holds the two run loops to bit
// identity under an active fault plan: same seed, same perturbations,
// same cycle count — the fault draws must be order-independent, not
// tied to either loop's iteration structure.
func TestInvariantFaultDifferential(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		ideal bool
	}{
		{"queens-torus", bench.QueensSource(5), false},
		{"fib-ideal", bench.FibSource(10), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fc := fault.Default(9)
			mk := func(tier sim.Tier) sim.Config {
				return sim.Config{
					Nodes:   8,
					Profile: rts.APRIL,
					Alewife: &sim.AlewifeConfig{IdealNet: tc.ideal},
					Faults:  &fc,
					Check:   true,
					Tier:    tier,
				}
			}
			diverge(t, func() *sim.Machine { return build(t, tc.src, mk(sim.TierCompiled)) },
				func() *sim.Machine { return build(t, tc.src, mk(sim.TierReference)) }, whole)
		})
	}
}

// TestInvariantFaultSeedsPreserveAnswer: the headline invariant — any
// seed may shift cycle counts, never the computed answer.
func TestInvariantFaultSeedsPreserveAnswer(t *testing.T) {
	src := bench.QueensSource(5)
	base := sim.Config{Nodes: 4, Profile: rts.APRIL, Alewife: &sim.AlewifeConfig{}, Check: true}
	clean := finish(t, build(t, src, base))
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := base
		fc := fault.Default(seed)
		cfg.Faults = &fc
		if got := finish(t, build(t, src, cfg)); got.Formatted != clean.Formatted {
			t.Errorf("seed %d: answer %q, fault-free answer %q", seed, got.Formatted, clean.Formatted)
		}
	}
}

// TestInvariantCheckersAreReadOnly: a clean run is bit-identical with
// checking on or off — the precondition for running the fault matrix
// with checkers armed.
func TestInvariantCheckersAreReadOnly(t *testing.T) {
	src := bench.QueensSource(5)
	mk := func(check bool) sim.Config {
		return sim.Config{Nodes: 8, Profile: rts.APRIL, Alewife: &sim.AlewifeConfig{}, Check: check}
	}
	diverge(t, func() *sim.Machine { return build(t, src, mk(true)) },
		func() *sim.Machine { return build(t, src, mk(false)) }, whole)
}

// TestInvariantInducedWedgeAutopsy permanently stalls every torus link
// and demands a structured report — reason, stalled links, per-node
// blocked state — rather than a bare error string or a panic.
func TestInvariantInducedWedgeAutopsy(t *testing.T) {
	geo := network.FitGeometry(4)
	nch := geo.Nodes() * 2 * geo.Dim
	links := make([]int, nch)
	for i := range links {
		links[i] = i
	}
	cfg := sim.Config{
		Nodes:          4,
		Profile:        rts.APRIL,
		Alewife:        &sim.AlewifeConfig{Geometry: geo},
		Faults:         &fault.Config{Seed: 1, StallLinks: links},
		Check:          true,
		DeadlockWindow: 60_000,
	}
	_, err := build(t, bench.QueensSource(5), cfg).Run()
	if err == nil {
		t.Fatal("run over a fully stalled network completed")
	}
	var ce *sim.CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("wedge error is %T (%v), want *sim.CrashError", err, err)
	}
	r := ce.Report
	if r.Reason != fault.ReasonDeadlock && r.Reason != fault.ReasonLivelock {
		t.Errorf("reason %q, want deadlock or livelock", r.Reason)
	}
	if r.Net == nil || len(r.Net.StalledLinks) != nch {
		t.Fatalf("report does not carry the stalled links: %+v", r.Net)
	}
	out := r.Render()
	if !strings.Contains(out, "STALLED (fault plan)") {
		t.Errorf("rendered report names no stalled link:\n%s", out)
	}
	if !strings.Contains(out, "last-retired@") {
		t.Errorf("rendered report lacks per-node progress:\n%s", out)
	}
	// The wedged request itself must appear as an outstanding miss.
	misses := 0
	for _, n := range r.Nodes {
		misses += len(n.Outstanding)
	}
	if misses == 0 {
		t.Errorf("no outstanding miss recorded in:\n%s", out)
	}
}

// TestInvariantBudgetCrashReport: cycle-budget exhaustion goes through
// the same forensics path, with the error text unchanged for existing
// callers.
func TestInvariantBudgetCrashReport(t *testing.T) {
	cfg := sim.Config{Nodes: 2, Profile: rts.APRIL, MaxCycles: 500}
	_, err := build(t, bench.FibSource(18), cfg).Run()
	if err == nil {
		t.Fatal("500-cycle budget was not exceeded")
	}
	var ce *sim.CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("budget error is %T, want *sim.CrashError", err)
	}
	if ce.Report.Reason != fault.ReasonBudget {
		t.Errorf("reason %q, want %q", ce.Report.Reason, fault.ReasonBudget)
	}
	want := fmt.Sprintf("sim: exceeded cycle budget %d", cfg.MaxCycles)
	if err.Error() != want {
		t.Errorf("error text %q, want %q", err.Error(), want)
	}
}

// TestScheduledWedge: node 3's router dies at cycle wedgeAt. Through
// the cycle before, the run is the unwedged run; after it, the run
// ends in a livelock or deadlock crash report; and restores from images
// taken before and after the wedge's cycle end in the same crash (in
// the later one the overdue wedge stays pending and the resumed run's
// first slice arms it).
func TestScheduledWedge(t *testing.T) {
	const wedgeAt = 3000
	src := bench.QueensSource(6)
	geo := network.FitGeometry(8)
	cfg := func(wedge uint64) sim.Config {
		return sim.Config{
			Nodes:          8,
			Profile:        rts.APRIL,
			Alewife:        &sim.AlewifeConfig{Geometry: geo},
			Faults:         &fault.Config{Seed: 1, WedgeAtCycle: wedge, WedgeNode: 3},
			DeadlockWindow: 60_000,
		}
	}
	clean, wedged := build(t, src, cfg(0)), build(t, src, cfg(wedgeAt))
	for _, m := range []*sim.Machine{clean, wedged} {
		if done, err := m.RunWindow(wedgeAt - 1); err != nil || done {
			t.Fatalf("RunWindow(%d) = %v, %v", wedgeAt-1, done, err)
		}
	}
	for i := range clean.Nodes {
		if !reflect.DeepEqual(clean.Nodes[i].Proc.Stats, wedged.Nodes[i].Proc.Stats) {
			t.Errorf("node %d diverges before the wedge", i)
		}
		if c, w := sim.NodeCache(clean, i).Stats, sim.NodeCache(wedged, i).Stats; c != w {
			t.Errorf("node %d cache diverges before the wedge:\n clean %+v\nwedged %+v", i, c, w)
		}
		if c, w := sim.NodeDirectory(clean, i).Stats, sim.NodeDirectory(wedged, i).Stats; c != w {
			t.Errorf("node %d directory diverges before the wedge:\n clean %+v\nwedged %+v", i, c, w)
		}
	}
	if c, w := clean.CounterRegistry().Snapshot(), wedged.CounterRegistry().Snapshot(); !reflect.DeepEqual(c, w) {
		t.Errorf("counters diverge before the wedge:\n clean %v\nwedged %v", c, w)
	}

	before, err := wedged.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if done, err := wedged.RunWindow(2000); err != nil || done {
		t.Fatalf("RunWindow past the wedge = %v, %v", done, err)
	}
	after, err := wedged.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	crash := func(m *sim.Machine) (*fault.Report, string) {
		t.Helper()
		_, err := m.Run()
		var ce *sim.CrashError
		if !errors.As(err, &ce) {
			t.Fatalf("wedged run ended in %v, want a crash report", err)
		}
		r := ce.Report
		if r.Reason != fault.ReasonDeadlock && r.Reason != fault.ReasonLivelock {
			t.Errorf("reason %q, want deadlock or livelock", r.Reason)
		}
		if r.Cycle <= wedgeAt {
			t.Errorf("crash at cycle %d, before the wedge at %d", r.Cycle, wedgeAt)
		}
		return r, err.Error()
	}
	want, wantErr := crash(wedged)
	for name, img := range map[string][]byte{"before": before, "after": after} {
		m, err := sim.Restore(img, sim.RestoreOverrides{})
		if err != nil {
			t.Fatal(err)
		}
		got, gotErr := crash(m)
		if got.Reason != want.Reason || got.Cycle != want.Cycle || gotErr != wantErr {
			t.Errorf("restored from the image %s the wedge: %s at %d (%s), want %s at %d (%s)",
				name, got.Reason, got.Cycle, gotErr, want.Reason, want.Cycle, wantErr)
		}
	}
}
