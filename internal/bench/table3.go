package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"april/internal/harness"
	"april/internal/mult"
	"april/internal/proc"
	"april/internal/rts"
	"april/internal/sim"
)

// System identifies a Table 3 row group.
type System string

const (
	SysEncore    System = "Encore"
	SysAPRIL     System = "APRIL"
	SysAPRILLazy System = "Apr-lazy"
)

// Row is one row of Table 3: normalized execution times for one
// program on one system. Values are execution time divided by the
// sequential T-compiled time ("T seq"), exactly as in the paper.
type Row struct {
	Program string
	System  System
	TSeq    float64         // always 1.0 (the baseline itself)
	MulTSeq float64         // sequential code with future detection
	Par     map[int]float64 // processors -> normalized time
	Result  string          // program result (for cross-checking)
	RawSeq  uint64          // T seq cycles (the normalization base)
}

// Table3Config drives the harness.
type Table3Config struct {
	Sizes       Sizes
	AprilProcs  []int // paper: 1 2 4 8 16
	EncoreProcs []int // paper measured the Multimax up to 8
	Verbose     io.Writer

	// Workers bounds the host goroutines running machines in parallel;
	// <= 0 means one per available host core. The grid's simulated
	// results are identical at any worker count.
	Workers int

	// Tier is the execution path every machine runs (sim.Tier; the
	// zero value is the compiled tier). Results are bit-identical
	// under every tier; Table3Perf times the grid under each.
	Tier sim.Tier

	// Perf, when non-nil, receives the whole grid's aggregate host-side
	// throughput (simulated cycles and instructions over the grid's
	// wall-clock time).
	Perf *proc.Perf

	// Stats, when non-nil, receives every run's full statistics dump in
	// grid order (the -stats-json payload): machine totals, per-node
	// breakdowns, and host-side throughput.
	Stats *[]RunStats

	// Occupancy, when non-nil, receives the harness worker pool's
	// per-worker run counts and busy time for the grid.
	Occupancy *harness.Occupancy
}

// RunStats is one grid run's statistics dump, JSON-exportable.
type RunStats struct {
	Label           string       `json:"label"`
	Nodes           int          `json:"nodes"`
	Cycles          uint64       `json:"cycles"`
	Result          string       `json:"result"`
	ContextSwitches uint64       `json:"context_switches"`
	Total           proc.Stats   `json:"total"`
	PerNode         []proc.Stats `json:"per_node"`
	Perf            proc.Perf    `json:"perf"`

	// Kinds is the machine-wide per-micro-kind execution count: the
	// opcode mix, maintained identically by both execution tiers.
	Kinds map[string]uint64 `json:"kinds,omitempty"`

	// Epoch appears when the epoch engine ran at least one lane:
	// multi-node execution through the compiled tier (sim's epoch.go).
	// Purely observational.
	Epoch *sim.EpochStats `json:"epoch,omitempty"`

	// Park appears when the run loop parked an idle node: how many idle
	// polls it executed and how many it charged in closed form (sim's
	// wake.go). Purely observational, like Epoch.
	Park *sim.ParkStats `json:"park,omitempty"`

	// Memory is the simulated memory's host footprint at the end of the
	// run: 4 KiB demand pages resident. Observational.
	Memory sim.MemoryStats `json:"memory"`
}

// DefaultTable3Config mirrors the paper's configurations.
func DefaultTable3Config() Table3Config {
	return Table3Config{
		Sizes:       PaperSizes,
		AprilProcs:  []int{1, 2, 4, 8, 16},
		EncoreProcs: []int{1, 2, 4, 8},
	}
}

// build makes a machine from cfg and loads src, compiled under mode,
// into it: the one path from a Mul-T source to a runnable machine that
// every harness in this package takes.
func build(cfg sim.Config, src string, mode mult.Mode) (*sim.Machine, error) {
	m, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	prog, err := mult.Compile(src, mode, m.StaticHeap())
	if err != nil {
		return nil, err
	}
	if err := m.Load(prog); err != nil {
		return nil, err
	}
	return m, nil
}

// RunOnce builds a fresh machine from cfg, runs src on it to
// completion, and dumps its statistics. Perf covers build and run.
func RunOnce(cfg sim.Config, src string, mode mult.Mode) (RunStats, error) {
	start := time.Now()
	m, err := build(cfg, src, mode)
	if err != nil {
		return RunStats{}, err
	}
	res, err := m.Run()
	if err != nil {
		return RunStats{}, err
	}
	total := m.TotalStats()
	rs := RunStats{
		Nodes:           cfg.Nodes,
		Cycles:          res.Cycles,
		Result:          res.Formatted,
		ContextSwitches: m.Switches(),
		Total:           total,
		PerNode:         make([]proc.Stats, 0, len(m.Nodes)),
		Perf:            proc.NewPerf(res.Cycles, total.Instructions, time.Since(start)),
		Kinds:           m.KindTotals(),
		Memory:          m.MemoryTelemetry(),
	}
	for _, n := range m.Nodes {
		rs.PerNode = append(rs.PerNode, n.Proc.Stats)
	}
	if t := m.EpochTelemetry(); t.Lanes > 0 {
		rs.Epoch = &t
	}
	if t := m.ParkTelemetry(); t.Parks > 0 {
		rs.Park = &t
	}
	return rs, nil
}

// systemSetup captures how each Table 3 system compiles and runs.
type systemSetup struct {
	sys   System
	prof  rts.Profile
	mode  mult.Mode // parallel-mode flags
	lazy  bool
	procs func(cfg *Table3Config) []int
}

func setups() []systemSetup {
	return []systemSetup{
		{
			sys:   SysEncore,
			prof:  rts.Encore,
			mode:  mult.Mode{HardwareFutures: false},
			lazy:  false,
			procs: func(cfg *Table3Config) []int { return cfg.EncoreProcs },
		},
		{
			sys:   SysAPRIL,
			prof:  rts.APRIL,
			mode:  mult.Mode{HardwareFutures: true},
			lazy:  false,
			procs: func(cfg *Table3Config) []int { return cfg.AprilProcs },
		},
		{
			sys:   SysAPRILLazy,
			prof:  rts.APRIL,
			mode:  mult.Mode{HardwareFutures: true, LazyFutures: true},
			lazy:  true,
			procs: func(cfg *Table3Config) []int { return cfg.AprilProcs },
		},
	}
}

// runSpec is one independent machine run in the flattened grid.
type runSpec struct {
	label string // "fib/APRIL 4p" — prefixes run errors
	src   string
	mode  mult.Mode
	prof  rts.Profile
	lazy  bool
	nodes int
}

// rowPlan remembers which grid indices belong to one output row.
type rowPlan struct {
	name    string
	su      systemSetup
	tseq    int   // spec index of the "T seq" run
	mulTSeq int   // spec index of the "Mul-T seq" run
	procs   []int // processor counts of the parallel runs
	parIdx  []int // their spec indices, parallel to procs
}

// grid flattens cfg's Table 3 into its independent machine runs, in
// grid order, and the plans that assemble them back into rows.
func grid(cfg *Table3Config) ([]runSpec, []rowPlan) {
	var (
		specs []runSpec
		plans []rowPlan
	)
	add := func(s runSpec) int {
		specs = append(specs, s)
		return len(specs) - 1
	}
	for _, name := range Names {
		src := cfg.Sizes.Source(name)
		for _, su := range setups() {
			pl := rowPlan{name: name, su: su}
			// "T seq": the optimized sequential compilation (no futures,
			// no detection overhead).
			pl.tseq = add(runSpec{
				label: fmt.Sprintf("%s/%s: T seq", name, su.sys),
				src:   src,
				mode:  mult.Mode{HardwareFutures: true, Sequential: true},
				prof:  su.prof,
				nodes: 1,
			})
			// "Mul-T seq": sequential code compiled by the Mul-T
			// compiler for this machine — on the Encore that inserts
			// software future checks before strict operations; on APRIL
			// the tag hardware makes it free.
			pl.mulTSeq = add(runSpec{
				label: fmt.Sprintf("%s/%s: Mul-T seq", name, su.sys),
				src:   src,
				mode:  mult.Mode{HardwareFutures: su.mode.HardwareFutures, Sequential: true},
				prof:  su.prof,
				nodes: 1,
			})
			for _, p := range su.procs(cfg) {
				pl.procs = append(pl.procs, p)
				pl.parIdx = append(pl.parIdx, add(runSpec{
					label: fmt.Sprintf("%s/%s: %d procs", name, su.sys, p),
					src:   src,
					mode:  su.mode,
					prof:  su.prof,
					lazy:  su.lazy,
					nodes: p,
				}))
			}
			plans = append(plans, pl)
		}
	}
	return specs, plans
}

// config is the machine s runs on under tier.
func (s runSpec) config(tier sim.Tier) sim.Config {
	return sim.Config{Nodes: s.nodes, Profile: s.prof, Lazy: s.lazy, Tier: tier}
}

// Table3 regenerates the paper's Table 3: for each benchmark and each
// system it measures "T seq" (sequential code, no future detection),
// "Mul-T seq" (sequential code with the machine's future detection),
// and the parallel runs at each processor count, all normalized to
// T seq.
//
// Every measurement is an independent machine, so the whole grid is
// flattened into one run list and fanned across host cores by the
// harness; rows are assembled (and cross-checked) in grid order
// afterwards, making the output independent of worker count.
func Table3(cfg Table3Config) ([]Row, error) {
	start := time.Now()
	specs, plans := grid(&cfg)

	outs, occ, err := harness.MapOccupancy(cfg.Workers, len(specs), func(i int) (RunStats, error) {
		s := specs[i]
		out, err := RunOnce(s.config(cfg.Tier), s.src, s.mode)
		if err != nil {
			return RunStats{}, fmt.Errorf("%s: %w", s.label, err)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	if cfg.Occupancy != nil {
		*cfg.Occupancy = occ
	}

	if cfg.Stats != nil {
		// Grid order, so the dump is independent of worker count.
		for i := range outs {
			outs[i].Label = specs[i].label
		}
		*cfg.Stats = outs
	}

	log := func(format string, args ...interface{}) {
		if cfg.Verbose != nil {
			fmt.Fprintf(cfg.Verbose, format+"\n", args...)
		}
	}
	var rows []Row
	for _, pl := range plans {
		tseq := outs[pl.tseq]
		log("%-7s %-9s T-seq result %s: %s", pl.name, pl.su.sys, tseq.Result, tseq.Perf)
		mulTSeq := outs[pl.mulTSeq]
		if mulTSeq.Result != tseq.Result {
			return nil, fmt.Errorf("%s/%s: Mul-T seq result %s != %s",
				pl.name, pl.su.sys, mulTSeq.Result, tseq.Result)
		}
		row := Row{
			Program: pl.name,
			System:  pl.su.sys,
			TSeq:    1.0,
			MulTSeq: float64(mulTSeq.Cycles) / float64(tseq.Cycles),
			Par:     map[int]float64{},
			Result:  tseq.Result,
			RawSeq:  tseq.Cycles,
		}
		for k, p := range pl.procs {
			out := outs[pl.parIdx[k]]
			if out.Result != tseq.Result {
				return nil, fmt.Errorf("%s/%s: %d procs: result %s != %s",
					pl.name, pl.su.sys, p, out.Result, tseq.Result)
			}
			row.Par[p] = float64(out.Cycles) / float64(tseq.Cycles)
			log("%-7s %-9s %2dp   %.2f vs T-seq: %s", pl.name, pl.su.sys, p, row.Par[p], out.Perf)
		}
		rows = append(rows, row)
	}

	if cfg.Perf != nil {
		// Aggregate throughput over the grid's wall time (not the sum of
		// per-run wall times, which would double-count parallel workers).
		var cycles, instructions uint64
		for _, o := range outs {
			cycles += o.Perf.SimCycles
			instructions += o.Perf.Instructions
		}
		*cfg.Perf = proc.NewPerf(cycles, instructions, time.Since(start))
	}
	return rows, nil
}

// FormatTable renders rows in the paper's layout.
func FormatTable(rows []Row, procs []int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-9s %6s %8s", "Program", "System", "T seq", "Mul-T")
	for _, p := range procs {
		fmt.Fprintf(&b, " %6d", p)
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-9s %6.1f %8.2f", r.Program, r.System, r.TSeq, r.MulTSeq)
		for _, p := range procs {
			if v, ok := r.Par[p]; ok {
				fmt.Fprintf(&b, " %6.2f", v)
			} else {
				fmt.Fprintf(&b, " %6s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
