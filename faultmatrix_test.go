package april_test

import (
	"strings"
	"testing"

	"april"
)

// TestFaultMatrix runs the default matrix's machines, fib/queens ×
// perfect/alewife × {1,4,8,64}p, under 2 seeds each as a tier-1 gate;
// the full 8-seed default runs via `april-bench -fault-matrix`.
func TestFaultMatrix(t *testing.T) {
	cfg := april.DefaultFaultMatrixConfig()
	cfg.Seeds = 2
	res, err := april.FaultMatrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 2 benchmarks × 2 modes × 4 sizes × (1 baseline + 2 seeds).
	if want := 2 * 2 * 4 * 3; len(res.Cells) != want {
		t.Errorf("ran %d cells, want %d", len(res.Cells), want)
	}
	if res.Failures != 0 {
		t.Fatalf("%d failing cells:\n%s", res.Failures, april.FormatFaultMatrix(res))
	}
	table := april.FormatFaultMatrix(res)
	if !strings.Contains(table, "0 failures") {
		t.Errorf("table does not report success:\n%s", table)
	}
}

// TestFaultMatrixPaperFib64: paper-size fib on 64 nodes needs more
// than the default 256 MiB of simulated memory (its ALEWIFE cells ran
// out of stack there), so a cell's memory grows with its node count.
func TestFaultMatrixPaperFib64(t *testing.T) {
	res, err := april.FaultMatrix(april.FaultMatrixConfig{
		Benchmarks: []string{"fib"},
		Procs:      []int{64},
		Seeds:      1,
		Sizes:      april.PaperSizes,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 0 {
		t.Fatalf("%d failing cells:\n%s", res.Failures, april.FormatFaultMatrix(res))
	}
}

// TestAutopsyExtractsReport drives a run into its cycle budget and
// pulls the crash report back out through the public API.
func TestAutopsyExtractsReport(t *testing.T) {
	_, err := april.Run(`(define (spin n) (if (< n 1) 0 (spin (- n 1)))) (spin 100000)`,
		april.Options{MaxCycles: 2_000})
	if err == nil {
		t.Fatal("2k-cycle budget not exceeded")
	}
	r, ok := april.Autopsy(err)
	if !ok {
		t.Fatalf("no report attached to %v", err)
	}
	out := r.Render()
	if !strings.Contains(out, "april autopsy") || !strings.Contains(out, "cycle-budget") {
		t.Errorf("unexpected render:\n%s", out)
	}
}

// TestFaultsRequireAlewife: arming faults without a network is a
// configuration error, not a silent no-op.
func TestFaultsRequireAlewife(t *testing.T) {
	fc := april.DefaultFaultOptions(1)
	_, err := april.Run(`42`, april.Options{Faults: &fc})
	if err == nil || !strings.Contains(err.Error(), "Faults requires Alewife") {
		t.Errorf("got %v", err)
	}
}
