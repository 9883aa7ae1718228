package sim

// White-box invariant tests: the coherence checker's ability to
// actually catch corrupted state (a checker that never fires is
// indistinguishable from one that works). The wake calendar's guard
// against a missed node step is calendar.TestInvariantCalendarPastEntry.

import (
	"testing"

	"april/internal/cache"
	"april/internal/rts"
)

func TestInvariantCheckerDetectsDoubleWriter(t *testing.T) {
	m, err := New(Config{
		Nodes:   4,
		Profile: rts.APRIL,
		Alewife: &AlewifeConfig{},
		Check:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.checker == nil || m.net.check == nil {
		t.Fatal("Check: true did not arm the checker")
	}

	// Plant the same block Exclusive in two caches behind the
	// directory's back — the corruption a protocol bug would produce.
	const block = 7
	m.net.ctls[0].cache.Insert(block, cache.Exclusive)
	m.net.ctls[1].cache.Insert(block, cache.Exclusive)
	m.net.checkBlock(block)

	if m.checker.Total() == 0 {
		t.Fatal("checker saw two exclusive holders and recorded nothing")
	}
	found := false
	for _, v := range m.checker.Violations() {
		if v.Name == "coherence/single-writer" {
			found = true
			if v.Block != block {
				t.Errorf("violation block %#x, want %#x", v.Block, block)
			}
		}
	}
	if !found {
		t.Errorf("no single-writer violation among %v", m.checker.Violations())
	}
}

func TestInvariantCheckerDetectsDirtyShared(t *testing.T) {
	m, err := New(Config{
		Nodes:   2,
		Profile: rts.APRIL,
		Alewife: &AlewifeConfig{},
		Check:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	const block = 3
	m.net.ctls[1].cache.Insert(block, cache.Shared)
	ln, _ := m.net.ctls[1].cache.Find(block)
	ln.MarkDirty()
	m.net.checkBlock(block)
	found := false
	for _, v := range m.checker.Violations() {
		if v.Name == "coherence/dirty-not-exclusive" {
			found = true
		}
	}
	if !found {
		t.Errorf("no dirty-not-exclusive violation among %v", m.checker.Violations())
	}
}
