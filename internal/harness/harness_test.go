package harness

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestMapOrdersResults(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		got, err := Map(workers, 100, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: results[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(4, 0, func(i int) (int, error) { return 0, errors.New("never") })
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestMapReturnsLowestIndexError(t *testing.T) {
	// Indices 10 and 30 both fail; whatever the scheduling, the error
	// must be index 10's, and every result below 10 must be present.
	for _, workers := range []int{1, 3, 16} {
		got, err := Map(workers, 50, func(i int) (string, error) {
			if i == 10 || i == 30 {
				return "", fmt.Errorf("boom %d", i)
			}
			return fmt.Sprintf("ok %d", i), nil
		})
		if err == nil || err.Error() != "boom 10" {
			t.Fatalf("workers=%d: err = %v, want boom 10", workers, err)
		}
		for i := 0; i < 10; i++ {
			if got[i] != fmt.Sprintf("ok %d", i) {
				t.Fatalf("workers=%d: results[%d] = %q", workers, i, got[i])
			}
		}
	}
}

func TestMapStopsIssuingAfterFailure(t *testing.T) {
	// With one worker the issue order is fully deterministic: after
	// index 10 fails, no later index may be started.
	var calls atomic.Int64
	_, err := Map(1, 50, func(i int) (int, error) {
		calls.Add(1)
		if i == 10 {
			return 0, errors.New("boom")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if n := calls.Load(); n != 11 {
		t.Fatalf("%d calls, want 11 (indices 0..10)", n)
	}
}

func TestForEachPropagatesError(t *testing.T) {
	want := errors.New("bad")
	err := ForEach(4, 20, func(i int) error {
		if i == 7 {
			return want
		}
		return nil
	})
	if !errors.Is(err, want) {
		t.Fatalf("err = %v", err)
	}
}

func TestWorkersDefault(t *testing.T) {
	if Workers(3) != 3 {
		t.Fatal("explicit worker count not honored")
	}
	if Workers(0) <= 0 || Workers(-1) <= 0 {
		t.Fatal("defaulted worker count not positive")
	}
}

// TestMapConcurrentStress hammers the pool under -race: many small
// tasks, shared counters, every worker count on the same data.
func TestMapConcurrentStress(t *testing.T) {
	var sum atomic.Int64
	got, err := Map(8, 1000, func(i int) (int, error) {
		sum.Add(int64(i))
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 999*1000/2 {
		t.Fatalf("sum = %d", sum.Load())
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("results[%d] = %d", i, v)
		}
	}
}

func TestObsMapOccupancy(t *testing.T) {
	results, occ, err := MapOccupancy(3, 10, func(i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range results {
		if v != i*i {
			t.Errorf("results[%d] = %d", i, v)
		}
	}
	if occ.Workers != 3 || len(occ.Runs) != 3 || len(occ.BusyNS) != 3 {
		t.Fatalf("occupancy shape: %+v", occ)
	}
	var runs int
	for _, r := range occ.Runs {
		runs += r
	}
	if runs != 10 {
		t.Errorf("runs sum = %d, want 10", runs)
	}
	if occ.WallNS == 0 {
		t.Error("wall time not recorded")
	}
	if f := occ.BusyFraction(); f < 0 || f > 1.000001 {
		t.Errorf("busy fraction %v out of range", f)
	}
}

func TestObsMapOccupancyEmptyAndZero(t *testing.T) {
	_, occ, err := MapOccupancy(4, 0, func(i int) (int, error) { return 0, nil })
	if err != nil {
		t.Fatal(err)
	}
	if occ.BusyFraction() != 0 {
		t.Errorf("empty sweep busy fraction = %v", occ.BusyFraction())
	}
	if (Occupancy{}).BusyFraction() != 0 {
		t.Error("zero-value occupancy must not divide by zero")
	}
}
