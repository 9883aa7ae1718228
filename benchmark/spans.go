package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's side of the call. Parent is the index of the span that
// was open when this one began (-1 at the top).
type span struct {
	Name   string
	Start  time.Duration // since the recorder's epoch
	End    time.Duration
	Parent int
	Args   map[string]uint64 // counter deltas of a run/window span
}

// recorder keeps the spans of one workload's traced operations in
// memory; nothing is written until the benchmark ends. A nil recorder
// records nothing, which is how the timed runs call the same code with
// tracing off.
type recorder struct {
	workload string
	epoch    time.Time
	spans    []span
	open     []int
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, epoch: time.Now()}
}

// begin opens a span and returns its handle for end.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	r.spans = append(r.spans, span{Name: name, Start: time.Since(r.epoch), Parent: parent})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	if len(r.open) == 0 || r.open[len(r.open)-1] != id {
		panic("benchmark: spans closed out of order")
	}
	r.open = r.open[:len(r.open)-1]
	r.spans[id].End = time.Since(r.epoch)
}

// add records a span whose interval is known after the fact (the grid's
// per-run spans come from the statistics Table3 hands back).
func (r *recorder) add(name string, parent int, start, dur time.Duration) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, span{Name: name, Start: start, End: start + dur, Parent: parent})
}

// selfSeconds is each span name's self time: its duration minus the
// part its child spans cover, summed over spans of that name.
func (r *recorder) selfSeconds() map[string]float64 {
	if r == nil {
		return nil
	}
	child := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range r.spans {
		out[s.Name] += (s.End - s.Start - child[i]).Seconds()
	}
	return out
}

// writeChrome writes the spans in Chrome trace-event form
// (chrome://tracing, Perfetto): one complete event per span, the
// workload as the process name.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"` // microseconds
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]uint64 `json:"args,omitempty"`
	}
	events := make([]event, 0, len(r.spans))
	for _, s := range r.spans {
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: s.Args,
		})
	}
	doc := struct {
		TraceEvents []event           `json:"traceEvents"`
		Metadata    map[string]string `json:"metadata"`
	}{events, map[string]string{"workload": r.workload}}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
