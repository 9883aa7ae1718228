package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

func loadManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesCatalogue holds BENCHMARK.json and the code's
// tables to the same workloads and metrics, in the same order, within
// the contract's limits.
func TestManifestMatchesCatalogue(t *testing.T) {
	m := loadManifest(t)
	if !reflect.DeepEqual(catalogueManifest(m.RunSeconds), m) {
		t.Errorf("BENCHMARK.json differs from the catalogue; regenerate it with `bash benchmark/run.sh -manifest -seconds %d`", m.RunSeconds)
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range m.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, e := range m.EndToEnd {
		name(e.Name)
		if !unitRE.MatchString(e.Unit) {
			t.Errorf("%s: unit %q", e.Name, e.Unit)
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v", e.Name, e.Bound)
		}
		hasSetup = hasSetup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s in s, lower is better")
	}
	for _, p := range m.PerLayer {
		name(p.Name)
		if !unitRE.MatchString(p.Unit) {
			t.Errorf("%s: unit %q", p.Name, p.Unit)
		}
	}
}

// smoke runs one workload at test sizes, one timed operation.
func smoke(t *testing.T, workload string, seed int64, trace bool) *result {
	t.Helper()
	res, err := run(runOpts{workload: workload, seed: seed, seconds: 0.05, reps: 1, trace: trace, sz: smokeSizes()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d: %v", workload, res.Correct, res.Attempted, res.Failed, res.Errors)
	}
	return res
}

// checkMetrics requires exactly the catalogue's names, once each (a
// metricSet panics on a second report), every value finite.
func checkMetrics(t *testing.T, workload string, defs []metricDef, got map[string]metricValue, nonZero bool) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("%s: %d metrics emitted, catalogue has %d", workload, len(got), len(defs))
	}
	for _, d := range defs {
		v, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s not emitted", workload, d.Name)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s: %s = %v", workload, d.Name, v.Value)
		case v.Unit != d.Unit:
			t.Errorf("%s: %s in %q, catalogue says %q", workload, d.Name, v.Unit, d.Unit)
		case nonZero && v.Value <= 0:
			t.Errorf("%s: end-to-end metric %s = %v; it must never be 0", workload, d.Name, v.Value)
		}
	}
}

// TestSmokeEveryWorkload runs every workload named in BENCHMARK.json at
// -scale smoke, timed and traced, and checks what it emits against the
// catalogue and the timed run against the traced one.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range loadManifest(t).Workloads {
		timed := smoke(t, w.Name, defaultSeed, false)
		checkMetrics(t, w.Name, endToEnd, timed.Metrics, true)
		traced := smoke(t, w.Name, defaultSeed, true)
		checkMetrics(t, w.Name, perLayer, traced.Metrics, false)
		if timed.Digest != traced.Digest {
			t.Errorf("%s: traced run simulated differently from the timed run: %s vs %s", w.Name, traced.Digest, timed.Digest)
		}
		if traced.rec == nil || len(traced.rec.spans) == 0 {
			t.Errorf("%s: traced run recorded no spans", w.Name)
		}
	}
}

// TestSeedChangesInputsNotAnswers: another seed gives another
// simulation of the same problem.
func TestSeedChangesInputsNotAnswers(t *testing.T) {
	a := smoke(t, "alewife64_queens", 1, false)
	b := smoke(t, "alewife64_queens", 2, false)
	if a.Digest == b.Digest {
		t.Error("seeds 1 and 2 simulated identically; the seed does not reach the inputs")
	}
	if again := smoke(t, "alewife64_queens", 1, false); again.Digest != a.Digest {
		t.Error("one seed gave two simulations")
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale float64) string {
		rec := record{Seed: 1, Scale: "smoke", Workloads: map[string]*workloadRecord{}}
		for _, w := range workloads {
			wr := &workloadRecord{Correct: true, Attempted: 1, EndToEnd: map[string]metricValue{}, PerLayer: map[string]metricValue{}}
			for _, d := range endToEnd {
				wr.EndToEnd[d.Name] = metricValue{Value: 2, Unit: d.Unit}
			}
			run := wr.EndToEnd["run_s"]
			run.Value *= scale
			wr.EndToEnd["run_s"] = run
			rec.Workloads[w.name] = wr
		}
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var bound float64
	for _, d := range endToEnd {
		if d.Name == "run_s" {
			bound = d.Bound
		}
	}
	base, within, beyond := write("a.json", 1), write("b.json", 1+bound/2), write("c.json", 1+2*bound)
	var out bytes.Buffer
	if ok, err := compareFiles(&out, base, within); err != nil || !ok {
		t.Errorf("run_s worse by half its bound: ok=%v err=%v\n%s", ok, err, out.String())
	}
	out.Reset()
	if ok, err := compareFiles(&out, base, beyond); err != nil || ok {
		t.Errorf("run_s worse by twice its bound passed: err=%v\n%s", err, out.String())
	}
}
