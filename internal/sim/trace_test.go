package sim_test

// Differential tests for the observability subsystem: tracing and
// timeline sampling are observation-only, so simulated results must be
// bit-identical with them on or off — across perfect-memory and
// ALEWIFE configurations, and with the sampler shortening fast-forward
// jumps. Plus structural checks on the exported artifacts.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"april/internal/bench"
	"april/internal/mult"
	"april/internal/proc"
	"april/internal/rts"
	"april/internal/sim"
	"april/internal/trace"
)

type traceOutcome struct {
	cycles uint64
	value  string
	stats  []proc.Stats
}

// buildMachine compiles src onto a fresh machine.
func buildMachine(t *testing.T, src string, nodes int, alewife bool) *sim.Machine {
	t.Helper()
	var aw *sim.AlewifeConfig
	if alewife {
		aw = &sim.AlewifeConfig{}
	}
	m, err := sim.New(sim.Config{Nodes: nodes, Profile: rts.APRIL, Alewife: aw})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := mult.Compile(src, mult.Mode{HardwareFutures: true}, m.StaticHeap())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(prog); err != nil {
		t.Fatal(err)
	}
	return m
}

func runObserved(t *testing.T, src string, nodes int, alewife, tracing, timeline bool) (traceOutcome, *sim.Machine) {
	t.Helper()
	m := buildMachine(t, src, nodes, alewife)
	if tracing {
		m.EnableTracing(256) // small ring: exercises wrap during real runs
	}
	if timeline {
		m.EnableTimeline(512) // small window: exercises the fast-forward cap
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	out := traceOutcome{cycles: res.Cycles, value: res.Formatted}
	for _, n := range m.Nodes {
		out.stats = append(out.stats, n.Proc.Stats)
	}
	return out, m
}

func TestTracingIsObservationOnly(t *testing.T) {
	configs := []struct {
		name    string
		src     string
		nodes   int
		alewife bool
	}{
		{"fib/perfect/4p", bench.FibSource(12), 4, false},
		{"fib/alewife/4p", bench.FibSource(12), 4, true},
		{"fib/alewife/8p", bench.FibSource(10), 8, true},
		{"queens/perfect/8p", bench.QueensSource(6), 8, false},
		{"queens/alewife/2p", bench.QueensSource(5), 2, true},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			off, _ := runObserved(t, cfg.src, cfg.nodes, cfg.alewife, false, false)
			on, m := runObserved(t, cfg.src, cfg.nodes, cfg.alewife, true, true)
			if on.cycles != off.cycles {
				t.Errorf("cycles: traced %d != untraced %d", on.cycles, off.cycles)
			}
			if on.value != off.value {
				t.Errorf("result: traced %s != untraced %s", on.value, off.value)
			}
			for i := range on.stats {
				if !reflect.DeepEqual(on.stats[i], off.stats[i]) {
					t.Errorf("node %d stats diverge:\ntraced:   %+v\nuntraced: %+v", i, on.stats[i], off.stats[i])
				}
			}
			if m.Tracer().TotalEvents() == 0 {
				t.Error("traced run recorded no events")
			}
		})
	}
}

func TestTimelineMeanMatchesStats(t *testing.T) {
	_, m := runObserved(t, bench.FibSource(12), 8, true, false, true)
	stats := m.TotalStats()
	want := stats.Utilization()
	got := m.Sampler().MeanUtilization()
	if want == 0 {
		t.Fatal("run reports zero utilization")
	}
	// The final partial window makes the series sum to the end-of-run
	// stats exactly; allow float rounding but hold the 1% acceptance
	// bound with a large margin.
	if rel := math.Abs(got-want) / want; rel > 1e-9 {
		t.Errorf("timeline mean %f vs stats %f (rel err %g)", got, want, rel)
	}
	if len(m.Sampler().Rows()) < 8 {
		t.Errorf("only %d sample rows", len(m.Sampler().Rows()))
	}
	// Per-node telescoping: summed deltas equal each node's totals.
	for i, n := range m.Nodes {
		var useful uint64
		for _, r := range m.Sampler().Rows() {
			if r.Node == i {
				useful += r.Useful
			}
		}
		if useful != n.Proc.Stats.UsefulCycles {
			t.Errorf("node %d: timeline useful %d != stats %d", i, useful, n.Proc.Stats.UsefulCycles)
		}
	}
}

func TestChromeExportIsValidJSON(t *testing.T) {
	_, m := runObserved(t, bench.FibSource(11), 4, true, true, false)
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, m.Tracer(), rts.APRIL.Frames, m.Now()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome export has no events")
	}
	phases := map[string]bool{}
	pids := map[float64]bool{}
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		phases[ph] = true
		if pid, ok := ev["pid"].(float64); ok {
			pids[pid] = true
		}
	}
	for _, ph := range []string{"M", "X"} {
		if !phases[ph] {
			t.Errorf("export lacks %q events", ph)
		}
	}
	if len(pids) != 4 {
		t.Errorf("export covers %d processes, want one per node (4)", len(pids))
	}
}

func TestCounterRegistrySnapshot(t *testing.T) {
	_, m := runObserved(t, bench.FibSource(11), 4, true, true, false)
	reg := m.CounterRegistry()
	snap := reg.Snapshot()
	for _, group := range []string{"scheduler", "machine", "network", "node0.proc", "node0.memory", "node3.proc"} {
		if _, ok := snap[group]; !ok {
			t.Errorf("snapshot lacks group %q", group)
		}
	}
	stats := m.TotalStats()
	if got := snap["machine"]["instructions"]; got != stats.Instructions {
		t.Errorf("machine.instructions %d != TotalStats %d", got, stats.Instructions)
	}
	if got := snap["machine"]["cycles"]; got != m.Now() {
		t.Errorf("machine.cycles %d != %d", got, m.Now())
	}
	if snap["machine"]["trace_events"] == 0 {
		t.Error("trace_events counter is zero on a traced run")
	}
	// Per-node proc counters sum to the machine totals.
	var useful uint64
	for i := range m.Nodes {
		useful += snap[fmt.Sprintf("node%d.proc", i)]["useful_cycles"]
	}
	if useful != stats.UsefulCycles {
		t.Errorf("per-node useful sum %d != total %d", useful, stats.UsefulCycles)
	}
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if s := buf.String(); strings.Contains(s, "NaN") {
		t.Error("counters JSON contains NaN")
	}
}

func TestSwitchCausesAttributed(t *testing.T) {
	// On ALEWIFE, remote misses must show up as cache-miss switches.
	_, m := runObserved(t, bench.FibSource(12), 4, true, true, false)
	causes := map[int32]int{}
	tr := m.Tracer()
	for n := 0; n < tr.Nodes(); n++ {
		for _, ev := range tr.Node(n).Events() {
			if ev.Kind == trace.KSwitch {
				causes[ev.C]++
			}
		}
	}
	if len(causes) == 0 {
		t.Fatal("no switch events recorded")
	}
	if causes[trace.CauseCacheMiss] == 0 {
		t.Errorf("no cache-miss switches on ALEWIFE (causes: %v)", causes)
	}
}
