package sim_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"april/internal/fault"
	"april/internal/isa"
	"april/internal/rts"
	"april/internal/sim"
	"april/internal/trace"
)

// rawSpinMachine builds a raw machine from cfg with one spinLoop
// thread on every node.
func rawSpinMachine(t *testing.T, cfg sim.Config) *sim.Machine {
	t.Helper()
	prog, err := isa.Assemble(spinLoop)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Profile = rts.APRIL
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.LoadRaw(prog)
	for node := range cfg.Nodes {
		m.SpawnRaw(node, 0, map[uint8]isa.Word{9: isa.MakeFixnum(1)})
	}
	return m
}

// TestRunForSharedLoop: RunFor runs the loop RunWindow runs, so a raw
// machine gets the timeline, and the checkers' crash, as any run does.
func TestRunForSharedLoop(t *testing.T) {
	var rows [2][]trace.Sample
	for i, tier := range sim.Tiers {
		m := rawSpinMachine(t, sim.Config{Nodes: 4, Alewife: &sim.AlewifeConfig{}, Tier: tier})
		s := m.EnableTimeline(100)
		if err := m.RunFor(1000); err != nil {
			t.Fatal(err)
		}
		if m.Now() != 1000 {
			t.Fatalf("%v: RunFor(1000) stopped at cycle %d", tier, m.Now())
		}
		// One row per node at each boundary 100 ... 1000.
		if got := len(s.Rows()); got != 10*4 {
			t.Fatalf("%v: %d timeline rows, want 40", tier, got)
		}
		rows[i] = s.Rows()
	}
	if !reflect.DeepEqual(rows[0], rows[1]) {
		t.Fatal("timeline rows differ between the tiers")
	}

	// The sabotage at cycle 500 breaks thread conservation; the
	// checkers report it at the next watermark, through RunFor as
	// through RunWindow.
	crash := func(run func(m *sim.Machine) error) (*fault.Report, uint64) {
		m := rawSpinMachine(t, sim.Config{Nodes: 4, Check: true, SabotageCycle: 500})
		var ce *sim.CrashError
		if err := run(m); !errors.As(err, &ce) {
			t.Fatalf("got %v, want a crash", err)
		}
		return ce.Report, m.Now()
	}
	rf, nf := crash(func(m *sim.Machine) error { return m.RunFor(300_000) })
	rw, nw := crash(func(m *sim.Machine) error { _, err := m.RunWindow(300_000); return err })
	if rf.Reason != fault.ReasonInvariant || len(rf.Violations) == 0 || rf.Violations[0].Name != "sched/conservation" {
		t.Fatalf("RunFor crash: reason %q, violations %v", rf.Reason, rf.Violations)
	}
	if rf.Cycle != rw.Cycle || nf != nw || nf >= 300_000 {
		t.Fatalf("RunFor crashed at cycle %d (clock %d), RunWindow at %d (clock %d)", rf.Cycle, nf, rw.Cycle, nw)
	}
}

// TestRunWindowSaturatesLimit: a window longer than the cycles left to
// 2^64 runs to the end of the program, or to MaxCycles, instead of
// wrapping to a limit behind the clock.
func TestRunWindowSaturatesLimit(t *testing.T) {
	src := `
(define (spin n) (if (= n 0) 0 (spin (- n 1))))
(spin %d)
`
	for _, tier := range sim.Tiers {
		load := func(n int, maxCycles uint64) *sim.Machine {
			m := build(t, fmt.Sprintf(src, n), sim.Config{Nodes: 2, Profile: rts.APRIL, MaxCycles: maxCycles, Tier: tier})
			if done, err := m.RunWindow(1000); done || err != nil {
				t.Fatalf("%v: first window: done=%v err=%v", tier, done, err)
			}
			return m
		}

		m := load(2000, 0)
		done, err := m.RunWindow(^uint64(0))
		if !done || err != nil {
			t.Fatalf("%v: RunWindow(2^64-1) at cycle 1000: done=%v err=%v, clock %d", tier, done, err, m.Now())
		}

		m = load(1_000_000, 5000)
		done, err = m.RunWindow(^uint64(0))
		var ce *sim.CrashError
		if done || !errors.As(err, &ce) || ce.Report.Reason != fault.ReasonBudget || m.Now() != 5000 {
			t.Fatalf("%v: RunWindow(2^64-1) under MaxCycles 5000: done=%v err=%v, clock %d", tier, done, err, m.Now())
		}
	}
}
