package trace

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestRingWrapKeepsMostRecent(t *testing.T) {
	var clock uint64
	tr := New(1, 8, &clock)
	if got := tr.Node(0).Cap(); got != 8 {
		t.Fatalf("capacity %d, want 8", got)
	}
	for i := 0; i < 20; i++ {
		clock = uint64(i)
		tr.Emit(0, KNetInject, int32(i), 0, 0, 0)
	}
	r := tr.Node(0)
	if r.Total() != 20 {
		t.Errorf("total %d, want 20", r.Total())
	}
	if r.Dropped() != 12 {
		t.Errorf("dropped %d, want 12", r.Dropped())
	}
	evs := r.Events()
	if len(evs) != 8 {
		t.Fatalf("retained %d events, want 8", len(evs))
	}
	// Oldest-first, and only the most recent 8 survive (12..19).
	for i, ev := range evs {
		if want := int32(12 + i); ev.A != want || ev.Cycle != uint64(want) {
			t.Errorf("event %d: A=%d cycle=%d, want %d", i, ev.A, ev.Cycle, want)
		}
	}
	if tr.TotalEvents() != 20 || tr.DroppedEvents() != 12 {
		t.Errorf("tracer totals %d/%d, want 20/12", tr.TotalEvents(), tr.DroppedEvents())
	}
}

func TestRingCapacityRoundsToPowerOfTwo(t *testing.T) {
	var clock uint64
	for _, tc := range []struct{ ask, want int }{{1, 1}, {3, 4}, {8, 8}, {1000, 1024}, {0, DefaultCapacity}} {
		tr := New(1, tc.ask, &clock)
		if got := tr.Node(0).Cap(); got != tc.want {
			t.Errorf("capacity(%d) = %d, want %d", tc.ask, got, tc.want)
		}
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	// Every method must be callable on the nil (disabled) tracer.
	tr.Emit(0, KSwitch, 1, 2, 3, 4)
	tr.SetSwitchCause(0, CauseCacheMiss)
	tr.EmitSwitch(0, 1, 2)
	if tr.Enabled() {
		t.Error("nil tracer reports enabled")
	}
	if tr.Nodes() != 0 || tr.TotalEvents() != 0 || tr.DroppedEvents() != 0 || tr.Now() != 0 {
		t.Error("nil tracer reports nonzero state")
	}
}

func TestEmitBoundsChecksNode(t *testing.T) {
	var clock uint64
	tr := New(2, 4, &clock)
	// The torus may route through geometry nodes beyond the machine.
	tr.Emit(-1, KNetHop, 0, 0, 0, 0)
	tr.Emit(2, KNetHop, 0, 0, 0, 0)
	tr.Emit(99, KNetHop, 0, 0, 0, 0)
	if tr.TotalEvents() != 0 {
		t.Errorf("out-of-range emits recorded %d events", tr.TotalEvents())
	}
}

func TestSwitchCauseConsumedOnce(t *testing.T) {
	var clock uint64
	tr := New(1, 8, &clock)
	tr.SetSwitchCause(0, CauseFuture)
	tr.EmitSwitch(0, 0, 1)
	tr.EmitSwitch(0, 1, 2)
	evs := tr.Node(0).Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].C != CauseFuture {
		t.Errorf("first switch cause %s, want future", CauseName(evs[0].C))
	}
	if evs[1].C != CauseOther {
		t.Errorf("second switch cause %s, want other (cause must not persist)", CauseName(evs[1].C))
	}
}

func TestSamplerSeriesAndMean(t *testing.T) {
	s := NewSampler(100)
	if s.NextBoundary() != 100 {
		t.Fatalf("first boundary %d, want 100", s.NextBoundary())
	}
	s.Append(Sample{Cycle: 100, Node: 0, Useful: 80, Idle: 20, Utilization: 0.8})
	s.Advance(100)
	if s.NextBoundary() != 200 {
		t.Fatalf("boundary after advance %d, want 200", s.NextBoundary())
	}
	s.Append(Sample{Cycle: 200, Node: 0, Useful: 20, Wait: 80, Utilization: 0.2})
	s.Advance(200)
	if got, want := s.MeanUtilization(), 0.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("mean utilization %f, want %f", got, want)
	}
	if got := s.NodeMeanUtilization(0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("node mean %f, want 0.5", got)
	}
	if got := s.NodeMeanUtilization(1); got != 0 {
		t.Errorf("absent node mean %f, want 0", got)
	}
}

func TestSamplerZeroWindowsNoNaN(t *testing.T) {
	s := NewSampler(0)
	if s.Interval() != DefaultSampleInterval {
		t.Fatalf("interval %d, want default", s.Interval())
	}
	// All-zero windows: rates must be 0, never NaN/Inf.
	s.Append(Sample{Cycle: 0, Node: 0})
	if u := s.MeanUtilization(); u != 0 {
		t.Errorf("empty-series utilization %f, want 0", u)
	}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v (NaN would fail to marshal)", err)
	}
	if strings.Contains(buf.String(), "NaN") || strings.Contains(buf.String(), "Inf") {
		t.Error("JSON contains NaN/Inf")
	}
	buf.Reset()
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "NaN") {
		t.Error("CSV contains NaN")
	}
}

func TestSafeRate(t *testing.T) {
	if got := SafeRate(5, 0); got != 0 {
		t.Errorf("SafeRate(5,0) = %f, want 0", got)
	}
	if got := SafeRate(1, 4); got != 0.25 {
		t.Errorf("SafeRate(1,4) = %f, want 0.25", got)
	}
}

func TestSamplerCSVShape(t *testing.T) {
	s := NewSampler(10)
	s.Append(Sample{Cycle: 10, Node: 0, Useful: 7, Idle: 3, Utilization: 0.7, Resident: 2})
	s.Append(Sample{Cycle: 10, Node: 1, Wait: 10, Resident: 1, NetInFlight: 4})
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("%d CSV records, want header + 2 rows", len(recs))
	}
	if recs[0][0] != "cycle" || recs[0][2] != "utilization" {
		t.Errorf("unexpected header %v", recs[0])
	}
	if recs[2][1] != "1" || recs[2][9] != "4" {
		t.Errorf("row 2 = %v", recs[2])
	}
}

// counterStats is a counter struct as a subsystem declares one.
type counterStats struct {
	X      uint64    `counter:"x"`
	Depth  int       `counter:"depth"`
	Hist   [3]uint64 `counter:"hist"`
	Loads  uint64    `counter:"loads,nosum"`
	Ignore uint64
}

func TestRegistrySnapshot(t *testing.T) {
	r := &Registry{}
	a := counterStats{X: 1, Depth: 2, Hist: [3]uint64{4, 5, 6}, Loads: 7, Ignore: 9}
	r.Register("a", &a)
	r.Register("b", func() counterStats { return counterStats{X: 3} })
	r.Gauge("b", "g", func() uint64 { return 8 })
	want := map[string]map[string]uint64{
		"a": {"x": 1, "depth": 2, "hist_0": 4, "hist_1": 5, "hist_2": 6, "loads": 7},
		"b": {"x": 3, "depth": 0, "hist_0": 0, "hist_1": 0, "hist_2": 0, "loads": 0, "g": 8},
	}
	if snap := r.Snapshot(); !reflect.DeepEqual(snap, want) {
		t.Fatalf("snapshot %v, want %v", snap, want)
	}
	a.X = 7 // registered structs are read in place
	if got := r.Snapshot()["a"]["x"]; got != 7 {
		t.Errorf("live snapshot x=%d, want 7", got)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back map[string]map[string]uint64
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("registry JSON invalid: %v", err)
	}
}

// TestRegistryMergesGroups: registrations under one group name merge
// by key, the later one winning a key both emit, and Sum totals its
// structs without their nosum fields.
func TestRegistryMergesGroups(t *testing.T) {
	r := &Registry{}
	r.Register("g", &counterStats{X: 1, Depth: 2})
	r.Gauge("g", "x", func() uint64 { return 5 })
	r.Gauge("g", "extra", func() uint64 { return 6 })
	r.Sum("total", []any{&counterStats{X: 1, Loads: 1}, &counterStats{X: 2, Hist: [3]uint64{0, 3, 0}, Loads: 1}})
	snap := r.Snapshot()
	if g := snap["g"]; len(g) != 7 || g["x"] != 5 || g["depth"] != 2 || g["extra"] != 6 {
		t.Errorf("merged group = %v, want the struct's keys with x=5 plus extra=6", g)
	}
	want := map[string]uint64{"x": 3, "depth": 0, "hist_0": 0, "hist_1": 3, "hist_2": 0}
	if got := snap["total"]; !reflect.DeepEqual(got, want) {
		t.Errorf("summed group = %v, want %v", got, want)
	}
}

func TestWriteChromeStructure(t *testing.T) {
	var clock uint64
	tr := New(2, 64, &clock)
	clock = 5
	tr.SetSwitchCause(0, CauseCacheMiss)
	tr.EmitSwitch(0, 0, 1)
	clock = 10
	tr.Emit(0, KMissStart, 42, 0, 1, 0)
	clock = 30
	tr.Emit(0, KMissFill, 42, 20, 1, 0)
	clock = 40
	tr.Emit(1, KTrap, 3, 0x100, 5, 0)

	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr, 4, 100); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	counts := map[string]int{}
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		counts[ph]++
		if _, ok := ev["pid"]; !ok {
			t.Fatalf("event without pid: %v", ev)
		}
	}
	// 2 nodes x (process_name + 4 frames + 4 extra tracks) metadata.
	if counts["M"] != 2*(1+4+4) {
		t.Errorf("%d metadata events, want %d", counts["M"], 2*9)
	}
	if counts["b"] != 1 || counts["e"] != 1 {
		t.Errorf("async span events b=%d e=%d, want 1/1", counts["b"], counts["e"])
	}
	if counts["X"] < 2 { // at least the trap slice and one run slice
		t.Errorf("%d complete events, want >= 2", counts["X"])
	}
	if counts["i"] == 0 {
		t.Error("no instant events (expected the switch marker)")
	}
}

func TestWriteChromeNilTracer(t *testing.T) {
	if err := WriteChrome(&bytes.Buffer{}, nil, 4, 0); err == nil {
		t.Error("WriteChrome(nil tracer) succeeded, want error")
	}
}

func TestKindAndCauseNames(t *testing.T) {
	for k := KNone; k < numKinds; k++ {
		if k.String() == "kind?" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if CauseName(CauseCacheMiss) != "cache-miss" || CauseName(99) != "cause?" {
		t.Error("cause naming broken")
	}
}
