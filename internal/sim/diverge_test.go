package sim_test

// The tier oracle's own test, and the helpers every differential test
// in this package builds its sides with.

import (
	"fmt"
	"strings"
	"testing"

	"april/internal/bench"
	"april/internal/mult"
	"april/internal/rts"
	"april/internal/sim"
)

// whole is a slice no run outlasts: Diverge compares only the images
// as built and at the end.
const whole = ^uint64(0)

// build compiles src onto a new machine of cfg and loads it: the APRIL
// profile unless cfg names one, lazy task creation with cfg.Lazy, and
// each tune hook (sim.LaneCap, tracing) applied before Load.
func build(t testing.TB, src string, cfg sim.Config, tune ...func(*sim.Machine)) *sim.Machine {
	t.Helper()
	if cfg.Profile.Frames == 0 {
		cfg.Profile = rts.APRIL
	}
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range tune {
		f(m)
	}
	mode := mult.Mode{HardwareFutures: cfg.Profile.HardwareFutures, LazyFutures: cfg.Lazy}
	prog, err := mult.Compile(src, mode, m.StaticHeap())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(prog); err != nil {
		t.Fatal(err)
	}
	return m
}

// finish runs m to the end of its program.
func finish(t testing.TB, m *sim.Machine) sim.Result {
	t.Helper()
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runTo advances m to cycle, which must come before the run ends.
func runTo(t testing.TB, m *sim.Machine, cycle uint64) *sim.Machine {
	t.Helper()
	if done, err := m.RunWindow(cycle - m.Now()); err != nil || done {
		t.Fatalf("RunWindow to %d = %v, %v", cycle, done, err)
	}
	return m
}

// diverge holds the runs a and b build to each other (sim.Diverge) at
// each slice, and returns the machines the last Diverge ran to the end.
func diverge(t *testing.T, a, b func() *sim.Machine, slices ...uint64) (ma, mb *sim.Machine) {
	t.Helper()
	keep := func(f func() *sim.Machine, m **sim.Machine) func() *sim.Machine {
		return func() *sim.Machine { *m = f(); return *m }
	}
	for _, s := range slices {
		if err := sim.Diverge(sideOf(keep(a, &ma)), sideOf(keep(b, &mb)), s); err != nil {
			t.Fatalf("slice %d: %v", s, err)
		}
	}
	return ma, mb
}

// sideOf is build as a Diverge side.
func sideOf(build func() *sim.Machine) func() (*sim.Machine, error) {
	return func() (*sim.Machine, error) { return build(), nil }
}

// TestDivergeNamesCycleAndField holds the oracle to its report: two
// runs that differ in one field from a known cycle on — one side's
// sabotage (Config.SabotageCycle) kills a thread there, the other's is
// defused — are named at exactly that cycle and that field, at every
// slice; two identical runs agree at every slice.
func TestDivergeNamesCycleAndField(t *testing.T) {
	const at = 1001
	cfg := sim.Config{Nodes: 2, Alewife: &sim.AlewifeConfig{}, SabotageCycle: at}
	src := bench.FibSource(7)
	armed := func() (*sim.Machine, error) { return build(t, src, cfg), nil }
	defused := func() (*sim.Machine, error) { return build(t, src, cfg, sim.Defuse), nil }
	for _, slice := range []uint64{1, 7, 64, whole} {
		want := fmt.Sprintf("cycle %d: sched / Threads 0 / State: 2 != 3", at)
		if err := sim.Diverge(defused, armed, slice); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("slice %d: %v, want %q", slice, err, want)
		}
	}
	for _, slice := range []uint64{1, 7, 64} {
		if err := sim.Diverge(defused, defused, slice); err != nil {
			t.Errorf("slice %d: identical runs: %v", slice, err)
		}
	}
}
