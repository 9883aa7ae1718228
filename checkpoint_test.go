package april

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"april/internal/bench"
	"april/internal/mult"
	"april/internal/snapshot"
	"april/internal/trace"
)

// checkpointMachine is a small ALEWIFE machine stopped mid-run.
func checkpointMachine(t *testing.T) (*checkpointer, string, func() error) {
	t.Helper()
	o := Options{Processors: 4, Alewife: &AlewifeOptions{}, CheckpointEvery: 1000, CheckpointDir: t.TempDir()}
	m, _, err := o.build()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := mult.Compile(bench.QueensSource(5), o.mode(), m.StaticHeap())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(prog); err != nil {
		t.Fatal(err)
	}
	if done, err := m.RunWindow(1000); err != nil || done {
		t.Fatalf("RunWindow = %v, %v", done, err)
	}
	ck, err := newCheckpointer(o, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(o.CheckpointDir, fmt.Sprintf("ckpt-%012d.img", m.Now()))
	return ck, path, func() error { return ck.maybeWrite(m) }
}

func tmpFiles(t *testing.T, dir string) []string {
	t.Helper()
	tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	return tmps
}

// TestCheckpointWriteDurable: a checkpoint lands whole under its final
// name, opens as an image, and leaves no temporary file behind.
func TestCheckpointWriteDurable(t *testing.T) {
	ck, path, write := checkpointMachine(t)
	if err := write(); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := snapshot.Open(img); err != nil {
		t.Errorf("written checkpoint does not open: %v", err)
	}
	if tmps := tmpFiles(t, ck.dir); len(tmps) != 0 {
		t.Errorf("temporary files left: %v", tmps)
	}
}

// TestCheckpointWriteFailureCleansUp: when the rename into place fails
// (the name is taken by a non-empty directory), the error comes back
// and the temporary file is gone.
func TestCheckpointWriteFailureCleansUp(t *testing.T) {
	ck, path, write := checkpointMachine(t)
	if err := os.MkdirAll(filepath.Join(path, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := write(); err == nil {
		t.Fatal("checkpoint over a non-empty directory succeeded")
	}
	if tmps := tmpFiles(t, ck.dir); len(tmps) != 0 {
		t.Errorf("temporary files left after a failed checkpoint: %v", tmps)
	}
	if len(ck.files) != 0 {
		t.Errorf("failed checkpoint retained as %v", ck.files)
	}
}

// sameResult fails unless two runs agree on everything simulated (Perf
// is host time).
func sameResult(t *testing.T, label string, got, want Result) {
	t.Helper()
	got.Perf, want.Perf = RunPerf{}, RunPerf{}
	if got != want {
		t.Errorf("%s:\n got %+v\nwant %+v", label, got, want)
	}
}

// newestImage returns the newest checkpoint in dir and the cycle it
// captures.
func newestImage(t *testing.T, dir string) (string, uint64) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "ckpt-*.img"))
	if err != nil || len(paths) < 2 {
		t.Fatalf("checkpoints in %s: %v, %v", dir, paths, err)
	}
	path := paths[len(paths)-1]
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := snapshot.PeekHeader(img)
	if err != nil {
		t.Fatal(err)
	}
	return path, hdr.Cycle
}

// TestRestoreResumesCheckpointedRun: writing checkpoints does not move
// the run, and restoring the newest image finishes with the result the
// uninterrupted run had.
func TestRestoreResumesCheckpointedRun(t *testing.T) {
	src := bench.QueensSource(6)
	o := Options{Processors: 8, Alewife: &AlewifeOptions{}}
	want, err := Run(src, o)
	if err != nil {
		t.Fatal(err)
	}
	o.CheckpointEvery, o.CheckpointDir = 5000, t.TempDir()
	got, err := Run(src, o)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "checkpointed run", got, want)
	path, cycle := newestImage(t, o.CheckpointDir)
	got, err = RestoreFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, fmt.Sprintf("restored from cycle %d", cycle), got, want)
}

// TestBisectPinsSabotage: a run sabotaged at a known cycle leaves
// checkpoints from which Bisect names that cycle exactly.
func TestBisectPinsSabotage(t *testing.T) {
	const sabotage = 12345
	o := Options{
		Processors:      4,
		Alewife:         &AlewifeOptions{},
		SabotageCycle:   sabotage,
		MaxCycles:       sabotage + 10000,
		CheckpointEvery: 2000,
		CheckpointKeep:  20,
		CheckpointDir:   t.TempDir(),
	}
	Run(bench.QueensSource(6), o) // the sabotaged run may end in any error
	r, err := Bisect(BisectOptions{Dir: o.CheckpointDir})
	if err != nil {
		t.Fatal(err)
	}
	if r.FirstBadCycle != sabotage || r.CleanCycle != sabotage-1 {
		t.Errorf("bisect: first bad %d, clean through %d; want %d, %d",
			r.FirstBadCycle, r.CleanCycle, sabotage, sabotage-1)
	}
	if r.Report == nil {
		t.Error("bisect returned no report for the first bad cycle")
	}
	if want := filepath.Join(o.CheckpointDir, "ckpt-000000012000.img"); r.Checkpoint != want {
		t.Errorf("bisect replays from %s, want %s", r.Checkpoint, want)
	}
}

// TestRestoreContinuesTraceAndTimeline: a restore asked for a trace and
// a timeline continues the image's: the event total and the timeline
// rows after the image's cycle are the uninterrupted run's.
func TestRestoreContinuesTraceAndTimeline(t *testing.T) {
	src := bench.QueensSource(6)
	traced := func(o Options) (Options, *bytes.Buffer, *bytes.Buffer) {
		var timeline, counters bytes.Buffer
		// 777 divides no checkpoint cycle, so no image sits on a
		// window boundary.
		o.Trace = &TraceOptions{ChromeOut: io.Discard, TimelineOut: &timeline, TimelineJSON: true,
			CountersOut: &counters, SampleInterval: 777}
		return o, &timeline, &counters
	}
	o, wantTimeline, wantCounters := traced(Options{Processors: 8, Alewife: &AlewifeOptions{}})
	if _, err := Run(src, o); err != nil {
		t.Fatal(err)
	}
	o, _, _ = traced(o)
	o.CheckpointEvery, o.CheckpointDir = 5000, t.TempDir()
	if _, err := Run(src, o); err != nil {
		t.Fatal(err)
	}
	path, cycle := newestImage(t, o.CheckpointDir)
	ro, gotTimeline, gotCounters := traced(Options{})
	if _, err := RestoreFile(path, ro); err != nil {
		t.Fatal(err)
	}

	var want, got []trace.Sample
	for _, c := range []struct {
		buf  *bytes.Buffer
		rows *[]trace.Sample
	}{{wantTimeline, &want}, {gotTimeline, &got}} {
		if err := json.Unmarshal(c.buf.Bytes(), c.rows); err != nil {
			t.Fatal(err)
		}
	}
	var tail []trace.Sample
	for _, s := range want {
		if s.Cycle > cycle {
			tail = append(tail, s)
		}
	}
	if len(tail) == 0 || !reflect.DeepEqual(got, tail) {
		t.Errorf("restored from cycle %d: %d timeline rows, want the uninterrupted run's %d after that cycle",
			cycle, len(got), len(tail))
	}

	events := func(buf *bytes.Buffer) uint64 {
		var groups map[string]map[string]uint64
		if err := json.Unmarshal(buf.Bytes(), &groups); err != nil {
			t.Fatal(err)
		}
		return groups["machine"]["trace_events"]
	}
	if w, g := events(wantCounters), events(gotCounters); g != w || w == 0 {
		t.Errorf("restored from cycle %d: %d trace events in all, want %d", cycle, g, w)
	}
}
