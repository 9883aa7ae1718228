package workload

import (
	"errors"
	"math"
	"testing"

	"april/internal/fault"
	"april/internal/sim"
)

func TestLinearFit(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // 1 + 2x
	a, b, r2 := LinearFit(xs, ys)
	if math.Abs(a-1) > 1e-9 || math.Abs(b-2) > 1e-9 || r2 < 0.999 {
		t.Errorf("fit = %v + %v x, r2=%v", a, b, r2)
	}
	// Degenerate inputs.
	if _, _, r2 := LinearFit([]float64{1}, []float64{2}); r2 != 0 {
		t.Error("single-point fit should report r2=0")
	}
	if a, b, _ := LinearFit([]float64{2, 2}, []float64{1, 3}); b != 0 || a != 2 {
		t.Errorf("vertical data fit = %v + %v x", a, b)
	}
}

func TestBuildProgramLoops(t *testing.T) {
	p := buildProgram(4)
	last := p.Code[len(p.Code)-1]
	if int(last.Imm) != -(len(p.Code) - 1) {
		t.Errorf("back branch %d for %d instructions", last.Imm, len(p.Code))
	}
}

func TestRunMeasures(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cycles = 60_000
	cfg.WarmupCycles = 20_000
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Utilization <= 0 || m.Utilization > 1 {
		t.Errorf("utilization %v", m.Utilization)
	}
	if m.MissPerCycle <= 0 {
		t.Errorf("no misses measured: %+v", m)
	}
	if m.RemoteLatency <= 10 {
		t.Errorf("remote latency %v should exceed the memory latency", m.RemoteLatency)
	}
}

// TestRunSameUnderEveryTier: a raw program runs on the configured tier
// — the compiled tier resolves single steps through its
// superinstruction handlers and lanes — and the tier never moves a
// measurement or a byte of the machine's image (sim.Diverge), cache
// LRU stamps included.
func TestRunSameUnderEveryTier(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cycles, cfg.WarmupCycles = 20_000, 5_000
	var meas [2]Measurement
	side := func(i int, tier sim.Tier) func() (*sim.Machine, error) {
		return func() (*sim.Machine, error) {
			var m *sim.Machine
			var err error
			if meas[i], m, err = run(cfg, tier); err != nil {
				return nil, err
			}
			var inline uint64
			for _, n := range m.Nodes {
				inline += n.Proc.InlineSteps
			}
			if (inline > 0) != (tier == sim.TierCompiled) {
				t.Errorf("%v: %d inline steps", tier, inline)
			}
			// The raw threads never end: the cycle budget ends the
			// run where the measurement did.
			m.Cfg.MaxCycles = m.Now()
			return m, nil
		}
	}
	err := sim.Diverge(side(0, sim.TierCompiled), side(1, sim.TierReference), 1)
	var ce *sim.CrashError
	if !errors.As(err, &ce) || ce.Report.Reason != fault.ReasonBudget {
		t.Errorf("the runs end in %v, want the cycle budget", err)
	}
	if meas[0] != meas[1] {
		t.Errorf("reference measures %+v, compiled %+v", meas[1], meas[0])
	}
}

// TestModelAssumptionsHold is experiment E6 at test scale: m(p) and
// T(p) grow roughly linearly with p, and utilization rises from p=1 to
// a plateau — the behavior equation (1) is built on.
func TestModelAssumptionsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation")
	}
	cfg := DefaultConfig()
	cfg.Cycles = 150_000
	cfg.WarmupCycles = 40_000
	ms, err := Sweep(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	var ps, misses, lats, utils []float64
	for _, m := range ms {
		ps = append(ps, float64(m.ThreadsPerNode))
		misses = append(misses, m.MissPerCycle)
		lats = append(lats, m.RemoteLatency)
		utils = append(utils, m.Utilization)
	}
	// Utilization improves with multithreading before interference
	// takes over.
	if utils[1] <= utils[0] {
		t.Errorf("p=2 utilization %.3f did not beat p=1 %.3f", utils[1], utils[0])
	}
	// m(p): increasing and well fit by a line.
	_, bm, r2m := LinearFit(ps, misses)
	if bm <= 0 {
		t.Errorf("miss rate slope %v not positive: %v", bm, misses)
	}
	if r2m < 0.85 {
		t.Errorf("m(p) poorly linear: r2=%.3f data=%v", r2m, misses)
	}
	// T(p): non-decreasing trend with load.
	_, bt, _ := LinearFit(ps, lats)
	if bt < 0 {
		t.Errorf("latency slope %v negative: %v", bt, lats)
	}
}
