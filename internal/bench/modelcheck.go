package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"april/internal/harness"
	"april/internal/model"
	"april/internal/mult"
	"april/internal/network"
	"april/internal/rts"
	"april/internal/sim"
	"april/internal/trace"
)

// ModelCheck cross-validates the Section 8 analytical model against the
// simulator (ROADMAP item 5): it runs benchmarks on the full ALEWIFE
// memory system across the Figure 5 processor range, measures the
// model's inputs from each run — resident threads p, miss rate m(p),
// remote latency T(p) — and compares the measured utilization U(p)
// against two predictions:
//
//   - equation (1) evaluated directly on the measured m, T, and C
//     (PredictedEq1): errors here isolate the equation's form;
//   - the full self-consistent model (model.Params.Utilization) with
//     the miss rate pinned to the measurement but the latency derived
//     from the machine's own torus geometry under load
//     (PredictedModel): errors here add the network model's error.
//
// The model describes a processor that is executing, waiting on
// memory, or context switching; it has no notion of idle starvation
// (too few runnable tasks) or non-switch trap overhead (future
// creation, tag traps). Predictions are therefore scored against the
// model-scope utilization useful/(useful + wait + C·switches); the
// overall utilization is recorded alongside so the gap is visible.

// ModelCheckConfig drives the measured-vs-model grid.
type ModelCheckConfig struct {
	Sizes      Sizes
	Benchmarks []string
	Procs      []int
	Workers    int
	// SampleInterval is the timeline sampling window in cycles used to
	// measure mean resident threads (0 = the sampler default).
	SampleInterval uint64
	Verbose        io.Writer
}

// DefaultModelCheckConfig covers fib and queens over the Figure 5
// processor range that the Table 3 grid also visits.
func DefaultModelCheckConfig() ModelCheckConfig {
	return ModelCheckConfig{
		Sizes:      PaperSizes,
		Benchmarks: []string{"fib", "queens"},
		Procs:      []int{2, 4, 8, 16},
	}
}

// ModelCheckRow is one grid cell: one benchmark at one machine size,
// with the measured model inputs, both predictions, and their errors.
type ModelCheckRow struct {
	Benchmark string `json:"benchmark"`
	Procs     int    `json:"procs"`
	Cycles    uint64 `json:"cycles"`
	Result    string `json:"result"`

	// Measured model inputs.
	MeanResident  float64 `json:"mean_resident_threads"` // p̄, sampler-weighted
	MissRate      float64 `json:"measured_miss_rate"`    // m, misses per useful cycle
	RemoteLatency float64 `json:"measured_remote_latency"`
	SwitchCost    float64 `json:"switch_cost"` // C, from the machine profile

	// MeasuredUtil is the run's overall utilization: useful cycles over
	// all cycles, including idle starvation and non-switch trap
	// overhead (future creation, tag traps) that equation (1) does not
	// model. MeasuredModelScope restricts the denominator to the three
	// components the model describes — executing, waiting on memory,
	// and context switching (C cycles per switch) — and is the quantity
	// the predictions are scored against.
	MeasuredUtil       float64 `json:"measured_utilization"`
	MeasuredModelScope float64 `json:"measured_model_scope_utilization"`

	PredictedEq1   float64 `json:"predicted_eq1"`
	PredictedModel float64 `json:"predicted_model"`
	// ModelLatency is the full model's own T(p) at the matched
	// geometry, for comparison against MeasuredRemoteLatency.
	ModelLatency float64 `json:"model_latency"`

	AbsErrEq1   float64 `json:"abs_err_eq1"`
	RelErrEq1   float64 `json:"rel_err_eq1"`
	AbsErrModel float64 `json:"abs_err_model"`
	RelErrModel float64 `json:"rel_err_model"`
}

// ModelCheckReport is the grid result, serialized to the stats JSON.
type ModelCheckReport struct {
	Sizes string          `json:"sizes"`
	Rows  []ModelCheckRow `json:"rows"`
}

// JSON renders the report for the -stats-json / BENCH_modelcheck.json
// output.
func (r ModelCheckReport) JSON() []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic(err) // plain data; marshal cannot fail
	}
	return append(b, '\n')
}

// modelCheckOnce runs one cell and measures the model inputs.
func modelCheckOnce(src string, nodes int, interval uint64) (ModelCheckRow, error) {
	m, err := build(sim.Config{
		Nodes:   nodes,
		Profile: rts.APRIL,
		Alewife: &sim.AlewifeConfig{},
	}, src, mult.Mode{HardwareFutures: true})
	if err != nil {
		return ModelCheckRow{}, err
	}
	m.EnableTimeline(interval)
	res, err := m.Run()
	if err != nil {
		return ModelCheckRow{}, err
	}

	stats := m.TotalStats()
	mem := m.MemSystemStats()
	row := ModelCheckRow{
		Benchmark:     "",
		Procs:         nodes,
		Cycles:        res.Cycles,
		Result:        res.Formatted,
		RemoteLatency: trace.SafeRate(mem.RemoteLatency, mem.RemoteMisses),
		SwitchCost:    float64(rts.APRIL.SwitchCycles),
	}
	if total := stats.TotalCycles(); total > 0 {
		row.MeasuredUtil = float64(stats.UsefulCycles) / float64(total)
	}
	if stats.UsefulCycles > 0 {
		row.MissRate = float64(mem.LocalMisses+mem.RemoteMisses) / float64(stats.UsefulCycles)
	}
	if scope := float64(stats.UsefulCycles+stats.WaitCycles) +
		row.SwitchCost*float64(m.Switches()); scope > 0 {
		row.MeasuredModelScope = float64(stats.UsefulCycles) / scope
	}
	// Mean resident threads per processor, weighted by each sample
	// window's accounted cycles so idle tails don't skew the mean.
	var residentSum, weightSum float64
	for _, s := range m.Sampler().Rows() {
		w := float64(s.Total())
		residentSum += float64(s.Resident) * w
		weightSum += w
	}
	if weightSum > 0 {
		row.MeanResident = residentSum / weightSum
	}
	return row, nil
}

// predict fills both model predictions and the error columns.
func predict(row *ModelCheckRow) {
	p := row.MeanResident
	if p < 1 {
		p = 1
	}
	row.PredictedEq1 = model.Eq1(p, row.MissRate, row.RemoteLatency, row.SwitchCost)

	// Full model at matching parameters: the machine's own torus
	// geometry, its context switch cost, and the miss rate pinned to
	// the measurement (interference is already inside the measured m,
	// so the linear-in-p term is disabled). The model then derives
	// T(p) from geometry and load by its own fixed point.
	geo := network.FitGeometry(row.Procs)
	params := model.Default()
	params.Dim, params.Radix = geo.Dim, geo.Radix
	params.SwitchCost = row.SwitchCost
	params.FixedMiss = row.MissRate
	params.InterferenceCoeff = 0
	sol := params.Utilization(p)
	row.PredictedModel = sol.Utilization
	row.ModelLatency = sol.Latency

	row.AbsErrEq1 = row.PredictedEq1 - row.MeasuredModelScope
	row.AbsErrModel = row.PredictedModel - row.MeasuredModelScope
	if row.MeasuredModelScope > 0 {
		row.RelErrEq1 = row.AbsErrEq1 / row.MeasuredModelScope
		row.RelErrModel = row.AbsErrModel / row.MeasuredModelScope
	}
}

// ModelCheck runs the measured-vs-model grid. Cells are independent
// machines fanned across host cores; rows come back in grid order, so
// the report is byte-identical at any worker count.
func ModelCheck(cfg ModelCheckConfig) (ModelCheckReport, error) {
	type cell struct {
		bench string
		procs int
	}
	var cells []cell
	for _, b := range cfg.Benchmarks {
		for _, p := range cfg.Procs {
			cells = append(cells, cell{b, p})
		}
	}
	rows, err := harness.Map(cfg.Workers, len(cells), func(i int) (ModelCheckRow, error) {
		c := cells[i]
		row, err := modelCheckOnce(cfg.Sizes.Source(c.bench), c.procs, cfg.SampleInterval)
		if err != nil {
			return ModelCheckRow{}, fmt.Errorf("model check %s %dp: %w", c.bench, c.procs, err)
		}
		row.Benchmark = c.bench
		predict(&row)
		if cfg.Verbose != nil {
			fmt.Fprintf(cfg.Verbose, "model-check %-7s %2dp: U=%.3f eq1=%.3f model=%.3f\n",
				c.bench, c.procs, row.MeasuredUtil, row.PredictedEq1, row.PredictedModel)
		}
		return row, nil
	})
	if err != nil {
		return ModelCheckReport{}, err
	}
	return ModelCheckReport{Rows: rows}, nil
}

// FormatModelCheck renders the measured-vs-predicted table. "U" is the
// run's overall utilization; "U-scope" excludes idle starvation and
// non-switch trap overhead (the components outside the model) and is
// what the predictions are scored against.
func FormatModelCheck(r ModelCheckReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %4s  %5s %6s %6s  %6s %7s  %8s %7s  %8s %7s\n",
		"Program", "p", "p̄", "m(p)", "T(p)", "U", "U-scope", "eq1", "rel%", "model", "rel%")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8s %4d  %5.2f %6.4f %6.1f  %6.3f %7.3f  %8.3f %+6.1f%%  %8.3f %+6.1f%%\n",
			row.Benchmark, row.Procs, row.MeanResident, row.MissRate, row.RemoteLatency,
			row.MeasuredUtil, row.MeasuredModelScope,
			row.PredictedEq1, 100*row.RelErrEq1,
			row.PredictedModel, 100*row.RelErrModel)
	}
	return b.String()
}
