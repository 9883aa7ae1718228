package proc

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func assertFinite(t *testing.T, p Perf, label string) {
	t.Helper()
	for name, v := range map[string]float64{
		"wall_seconds":      p.WallSeconds,
		"cycles_per_second": p.CyclesPerSecond,
		"mips":              p.MIPS,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s: %s is %f", label, name, v)
		}
	}
}

func TestPerfZeroDurationNoNaN(t *testing.T) {
	// A run can complete in under the wall-clock resolution; the rates
	// must degrade to 0, never NaN or Inf.
	p := NewPerf(1000, 500, 0)
	assertFinite(t, p, "zero wall time")
	if p.CyclesPerSecond != 0 || p.MIPS != 0 {
		t.Errorf("zero-duration rates %f/%f, want 0/0", p.CyclesPerSecond, p.MIPS)
	}
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatalf("json.Marshal: %v (NaN/Inf fails to marshal)", err)
	}
	if s := string(b); strings.Contains(s, "NaN") || strings.Contains(s, "Inf") {
		t.Errorf("JSON contains non-finite values: %s", s)
	}
}

func TestPerfZeroEverything(t *testing.T) {
	p := NewPerf(0, 0, 0)
	assertFinite(t, p, "all zero")
	if _, err := json.Marshal(p); err != nil {
		t.Fatal(err)
	}
	_ = p.String() // must not panic
}
