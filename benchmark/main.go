// Command benchmark is the repository's benchmark: six workloads on the
// APRIL/ALEWIFE simulator, seven end-to-end metrics each, and an
// outside-in ledger of what every layer costs the host. README.md in
// this directory is the catalogue; BENCHMARK.json at the repository
// root is the contract the driver checks it against.
//
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//	        one workload, one process: end-to-end metrics (trace 0) or
//	        per-layer metrics (trace 1); the last line of stdout is the
//	        result object.
//	bash benchmark/run.sh -seed 1 -out results.json
//	        every workload, each in its own child process, timed then
//	        traced; prints every metric and writes the full record.
//	bash benchmark/run.sh -compare A.json B.json
//	        two such records against every metric's bound.
//	bash benchmark/run.sh -layers-only [-layer cache]
//	        the layer drives alone.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// Seed 1 is the default. Seed 2 is held out: do not tune a change
// against it; a claimed gain must also hold there.
const defaultSeed = 1

func main() {
	var (
		workload   = flag.String("workload", "", "run this one workload in this process (default: all, each in a child process)")
		seed       = flag.Int64("seed", defaultSeed, "input seed; 2 is the held-out seed")
		seconds    = flag.Float64("seconds", 6, "how long the timed operations of one workload measure for")
		reps       = flag.Int("reps", 0, "timed operations per workload, instead of -seconds")
		trace      = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from traced operations and the layer drives")
		out        = flag.String("out", "", "write the full record (raw samples, digests, host) here; traced runs put trace-<workload>.json next to it")
		scale      = flag.String("scale", "full", "full, or smoke (test sizes; what benchmark_test.go runs)")
		layersOnly = flag.Bool("layers-only", false, "run the layer drives alone")
		layer      = flag.String("layer", "", "with -layers-only: only the drives of this layer (metric name prefix, e.g. cache)")
		compare    = flag.Bool("compare", false, "compare two -out records: -compare A.json B.json")
		manifest   = flag.Bool("manifest", false, "print BENCHMARK.json as the catalogue defines it")
	)
	flag.Parse()

	sz := fullSizes()
	switch *scale {
	case "full":
	case "smoke":
		sz = smokeSizes()
	default:
		fatal(fmt.Errorf("unknown -scale %q", *scale))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}

	switch {
	case *manifest:
		b, err := json.MarshalIndent(catalogueManifest(int(*seconds)), "", "  ")
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(append(b, '\n'))
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two record files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(2)
		}
	case *layersOnly:
		ms := newMetricSet(perLayer)
		filter := func(metric string) bool { return *layer == "" || strings.HasPrefix(metric, *layer+".") }
		budget := secondsDuration(*seconds)
		if err := runDrives(ms, "", *seed, sz, budget, filter); err != nil {
			fatal(err)
		}
		printMetrics(os.Stdout, "layers", perLayer, ms.values)
	case *workload != "":
		res, err := run(runOpts{workload: *workload, seed: *seed, seconds: *seconds, reps: *reps, trace: *trace == 1, sz: sz})
		if err != nil {
			fatal(err)
		}
		if err := emit(res, *trace == 1, *out); err != nil {
			fatal(err)
		}
	default:
		if err := runAll(*seed, *seconds, *reps, *scale, *out); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// emit prints one workload's metrics by name with their units, writes
// the full record and the span trace when asked, and ends stdout with
// the driver's result line.
func emit(res *result, traced bool, out string) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	printMetrics(os.Stdout, res.Workload, defs, res.Metrics)
	if !res.Seeded {
		fmt.Printf("%s: inputs are seed-independent by construction; -seed %d was accepted and ignored\n", res.Workload, res.Seed)
	}
	for _, e := range res.Errors {
		fmt.Printf("%s: FAILED operation: %s\n", res.Workload, e)
	}
	if out != "" {
		b, err := json.MarshalIndent(res, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, b, 0o644); err != nil {
			return err
		}
		if res.rec != nil {
			if err := res.rec.writeChrome(filepath.Join(filepath.Dir(out), "trace-"+res.Workload+".json")); err != nil {
				return err
			}
		}
	}
	type line struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]line, len(res.Metrics))
	for name, v := range res.Metrics {
		metrics[name] = line{v.Value, v.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool            `json:"correct"`
		Attempted int             `json:"attempted"`
		Failed    int             `json:"failed"`
		Metrics   map[string]line `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func printMetrics(w *os.File, workload string, defs []metricDef, values map[string]metricValue) {
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-20s %-38s %16.6g %s", workload, d.Name, v.Value, v.Unit)
		if len(v.Samples) > 0 {
			fmt.Fprintf(w, "  (%d samples)", len(v.Samples))
		}
		fmt.Fprintln(w)
	}
}

// ---- every workload, each in its own child process ----

// hostInfo is the provenance recorded with a full record.
type hostInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os_arch"`
	Commit     string `json:"commit"`
}

type workloadRecord struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Seeded    bool                   `json:"seed_changes_inputs"`
	Digest    string                 `json:"digest"`
	Errors    []string               `json:"errors,omitempty"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
}

// record is the -out file of a full run, and what -compare reads.
type record struct {
	Host      hostInfo                   `json:"host"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Scale     string                     `json:"scale"`
	Workloads map[string]*workloadRecord `json:"workloads"`
}

func commit() string {
	b, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// child runs one workload in a fresh process, so that its peak RSS is
// its own, and returns its full result. common are the flags every
// child of this run shares.
func child(self string, common []string, workload string, trace int, dir string) (*result, error) {
	tmp := filepath.Join(dir, fmt.Sprintf(".part-%s-%d.json", workload, trace))
	defer os.Remove(tmp)
	cmd := exec.Command(self, append(common, "-workload", workload, "-trace", fmt.Sprint(trace), "-out", tmp)...)
	cmd.Stdout, cmd.Stderr = io.Discard, os.Stderr // the metrics are printed again below, merged
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (trace %d): %w", workload, trace, err)
	}
	b, err := os.ReadFile(tmp)
	if err != nil {
		return nil, err
	}
	var res result
	return &res, json.Unmarshal(b, &res)
}

func runAll(seed int64, seconds float64, reps int, scale, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	dir := "."
	if out != "" {
		dir = filepath.Dir(out)
	}
	rec := record{
		Host: hostInfo{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS + "/" + runtime.GOARCH, commit()},
		Seed: seed, Seconds: seconds, Scale: scale,
		Workloads: map[string]*workloadRecord{},
	}
	common := []string{"-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-reps", fmt.Sprint(reps), "-scale", scale}
	allCorrect := true
	for _, w := range workloads {
		timed, err := child(self, common, w.name, 0, dir)
		if err != nil {
			return err
		}
		traced, err := child(self, common, w.name, 1, dir)
		if err != nil {
			return err
		}
		wr := &workloadRecord{
			Correct:   timed.Correct && traced.Correct && timed.Digest == traced.Digest,
			Attempted: timed.Attempted + traced.Attempted,
			Failed:    timed.Failed + traced.Failed,
			Seeded:    timed.Seeded,
			Digest:    timed.Digest,
			Errors:    append(timed.Errors, traced.Errors...),
			EndToEnd:  timed.Metrics,
			PerLayer:  traced.Metrics,
		}
		if timed.Digest != traced.Digest {
			wr.Failed++
			wr.Errors = append(wr.Errors, fmt.Sprintf("traced run simulated differently from the timed run (%s vs %s)", traced.Digest, timed.Digest))
		}
		rec.Workloads[w.name] = wr
		allCorrect = allCorrect && wr.Correct
		printMetrics(os.Stdout, w.name, endToEnd, wr.EndToEnd)
		printMetrics(os.Stdout, w.name, perLayer, wr.PerLayer)
		fmt.Printf("%-20s operations attempted %d, failed %d\n", w.name, wr.Attempted, wr.Failed)
		for _, e := range wr.Errors {
			fmt.Printf("%-20s FAILED operation: %s\n", w.name, e)
		}
	}
	if out != "" {
		b, err := json.MarshalIndent(rec, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if !allCorrect {
		return fmt.Errorf("some operations failed")
	}
	return nil
}

// ---- BENCHMARK.json ----

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestEndToEnd `json:"end_to_end"`
	PerLayer   []manifestLayer    `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestEndToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifestLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// catalogueManifest is the manifest the code's tables define.
func catalogueManifest(runSeconds int) manifest {
	m := manifest{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWorkload{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, manifestEndToEnd{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestLayer{d.Name, d.Unit, d.Better})
	}
	return m
}
