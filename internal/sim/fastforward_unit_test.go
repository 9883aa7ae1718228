package sim

// White-box tests for fastForwardUntil's edge cases: the zero-skip
// returns, and jumps landing exactly on a caller-imposed limit (the
// sampler-boundary and MaxCycles caps both reduce to that).

import (
	"strings"
	"testing"

	"april/internal/rts"
)

func ffTestMachine(t *testing.T, nodes int) *Machine {
	t.Helper()
	m, err := New(Config{Nodes: nodes, Profile: rts.APRIL})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFastForwardZeroSkipWhileRunning(t *testing.T) {
	m := ffTestMachine(t, 4)
	// A fresh machine has every node filed in the wake calendar at
	// cycle 0: at least one node Steps this cycle, so no jump is
	// possible.
	m.fastForwardUntil(1_000_000)
	if m.now != 0 {
		t.Fatalf("jumped to %d with nodes running", m.now)
	}
}

func TestFastForwardZeroSkipAtWake(t *testing.T) {
	m := ffTestMachine(t, 2)
	m.wake.Init(len(m.Nodes))
	m.wake.Add(m.now, m.now, 0) // a node wakes on the current cycle
	m.wake.Add(m.now, m.now+100, 1)
	m.fastForwardUntil(1_000_000)
	if m.now != 0 {
		t.Fatalf("jumped to %d across a due wake", m.now)
	}
}

func TestFastForwardZeroSkipAtLimit(t *testing.T) {
	m := ffTestMachine(t, 1)
	m.wake.Init(len(m.Nodes))
	m.wake.Add(m.now, 500, 0)
	m.fastForwardUntil(m.now) // limit == now: nothing to skip
	if m.now != 0 {
		t.Fatalf("jumped to %d past a zero-length window", m.now)
	}
}

func TestFastForwardJumpsToNextWake(t *testing.T) {
	m := ffTestMachine(t, 2)
	m.wake.Init(len(m.Nodes))
	m.wake.Add(m.now, 50, 0)
	m.wake.Add(m.now, 90, 1)
	m.fastForwardUntil(1_000_000)
	if m.now != 50 {
		t.Fatalf("now = %d, want the earliest wake 50", m.now)
	}
}

func TestFastForwardLandsExactlyOnLimit(t *testing.T) {
	// The sampler-boundary and MaxCycles caps both pass a limit the
	// jump must land on exactly — never cross, never stop short of
	// when the next wake is beyond it.
	m := ffTestMachine(t, 1)
	m.wake.Init(len(m.Nodes))
	m.wake.Add(m.now, 500, 0)
	m.fastForwardUntil(100)
	if m.now != 100 {
		t.Fatalf("now = %d, want the cap 100", m.now)
	}
	// Repeating at the cap is the zero-skip return.
	m.fastForwardUntil(100)
	if m.now != 100 {
		t.Fatalf("now = %d after repeat, want 100", m.now)
	}
	// A fresh window jumps the rest of the way.
	m.fastForwardUntil(1_000_000)
	if m.now != 500 {
		t.Fatalf("now = %d, want the wake 500", m.now)
	}
}

func TestFastForwardLandsExactlyOnMaxCycles(t *testing.T) {
	m := ffTestMachine(t, 1)
	m.wake.Init(len(m.Nodes))
	m.wake.Add(m.now, m.Cfg.MaxCycles+1000, 0)
	m.fastForwardUntil(m.Cfg.MaxCycles)
	if m.now != m.Cfg.MaxCycles {
		t.Fatalf("now = %d, want MaxCycles %d", m.now, m.Cfg.MaxCycles)
	}
}

// TestBudgetErrorMatchesReference runs a real program into the cycle
// budget on both loops: they must fail the same way (the fast loop's
// capped jump lands exactly on MaxCycles and errors before executing
// that cycle, like the reference loop's per-cycle check).
func TestBudgetErrorMatchesReference(t *testing.T) {
	src := `
(define (spin n) (if (= n 0) 0 (spin (- n 1))))
(spin 1000000)
`
	runOut := func(tier Tier) error {
		_, err := calMachine(t, Config{Nodes: 2, Profile: rts.APRIL, MaxCycles: 5000, Tier: tier}, src).Run()
		return err
	}
	fast, ref := runOut(TierCompiled), runOut(TierReference)
	if fast == nil || ref == nil {
		t.Fatalf("expected budget errors, got fast=%v ref=%v", fast, ref)
	}
	if !strings.Contains(fast.Error(), "cycle budget") || fast.Error() != ref.Error() {
		t.Fatalf("errors diverge:\nfast: %v\nref:  %v", fast, ref)
	}
}
