package sim

// White-box invariant tests: the wake-queue determinism guard and the
// coherence checker's ability to actually catch corrupted state (a
// checker that never fires is indistinguishable from one that works).

import (
	"strings"
	"testing"

	"april/internal/cache"
	"april/internal/rts"
)

func TestInvariantWakeQueuePastEntry(t *testing.T) {
	var q wakeQueue
	q.init(4)
	q.push(2, 5)
	q.push(1, 5)

	// Exactly-due entries pop in ascending node order.
	due := q.popDue(5, nil)
	if len(due) != 2 || due[0] != 1 || due[1] != 2 {
		t.Fatalf("popDue(5) = %v, want [1 2]", due)
	}

	// An entry strictly earlier than now means the run loop skipped a
	// scheduled step; the queue must refuse to paper over it.
	q.push(3, 7)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("popDue past a scheduled wake did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "wake queue entry in the past") {
			t.Fatalf("unexpected panic value: %v", r)
		}
	}()
	q.popDue(8, nil)
}

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
