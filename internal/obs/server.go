package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"april/internal/trace"
)

// Hooks are the read-only views the server exposes. Every hook is
// invoked only while the caller's gate guarantees the machine is
// quiescent (between RunWindow slices or after the run), so hooks may
// read live machine state directly. Progress and Counters are
// required; Timeline and ChromeTrace may be nil when the sampler or
// tracer is off, disabling /timeline and /trace with a 404.
type Hooks struct {
	Progress    func() Progress
	Counters    func() map[string]map[string]uint64
	Timeline    func(from int) []trace.Sample
	ChromeTrace func(w io.Writer) error
	// Checkpoint serializes the machine into a restorable image
	// (sim.Snapshot); nil disables /checkpoint with a 404.
	Checkpoint func() ([]byte, error)
}

// Progress is the /progress payload. The hook fills the simulated
// fields (cycle, budget, instructions, utilization, shape); the server
// overlays host-side fields — wall time, simulation rate, the
// remaining-budget ETA, and completion state.
type Progress struct {
	Cycle        uint64  `json:"cycle"`
	BudgetCycles uint64  `json:"budget_cycles"`
	Instructions uint64  `json:"instructions"`
	Utilization  float64 `json:"utilization"`
	Nodes        int     `json:"nodes"`

	Done   bool   `json:"done"`
	Result string `json:"result,omitempty"`

	WallSeconds     float64 `json:"wall_seconds"`
	CyclesPerSecond float64 `json:"cycles_per_second"`
	// EtaBudgetSeconds projects the current rate to the cycle budget —
	// an upper bound on remaining wall time, since most runs exit long
	// before the budget.
	EtaBudgetSeconds float64 `json:"eta_budget_seconds"`
}

// Server is the live introspection endpoint set. The design premise:
// the run loop advances the machine one RunWindow slice at a time and
// holds the gate for each slice; handlers take the gate between
// slices, snapshot what they need into private buffers, release, and
// only then write the response. A curl therefore waits at most one
// window, the run loop at most one snapshot, and no hook ever
// observes a machine mid-cycle.
type Server struct {
	hooks Hooks

	// gate serializes machine access between the run loop and handlers.
	gate sync.Mutex

	httpSrv *http.Server
	ln      net.Listener
	started time.Time

	// Subscriber state: the published timeline backlog and live SSE
	// fans. subMu is ordered after gate (publish runs under both).
	subMu  sync.Mutex
	rows   []trace.Sample
	subs   map[chan trace.Sample]struct{}
	done   bool
	result string
}

// NewServer builds a server over the given hooks (not yet listening).
func NewServer(hooks Hooks) *Server {
	return &Server{
		hooks: hooks,
		subs:  map[chan trace.Sample]struct{}{},
	}
}

// Start listens on addr (host:port; ":0" picks a free port) and serves
// in a background goroutine. It returns the base URL, e.g.
// "http://127.0.0.1:41873".
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.started = time.Now()
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/progress", s.handleProgress)
	mux.HandleFunc("/counters", s.handleCounters)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/timeline", s.handleTimeline)
	mux.HandleFunc("/trace", s.handleTrace)
	mux.HandleFunc("/checkpoint", s.handleCheckpoint)
	s.httpSrv = &http.Server{Handler: mux}
	go s.httpSrv.Serve(ln)
	return "http://" + ln.Addr().String(), nil
}

// Step runs one slice of simulation under the gate and publishes any
// timeline windows the slice closed. The run loop must funnel every
// machine mutation through here (or Finish) so handlers only ever see
// quiescent state.
func (s *Server) Step(fn func()) {
	s.gate.Lock()
	defer s.gate.Unlock()
	fn()
	s.publishLocked()
}

// Finish marks the run complete: publishes the final timeline rows,
// records the formatted result for /progress, and closes every SSE
// stream with a terminal "done" event.
func (s *Server) Finish(result string) {
	s.gate.Lock()
	s.publishLocked()
	s.gate.Unlock()
	s.subMu.Lock()
	s.done = true
	s.result = result
	for ch := range s.subs {
		close(ch)
	}
	s.subs = map[chan trace.Sample]struct{}{}
	s.subMu.Unlock()
}

// Close shuts the listener down. Safe after Finish; if the run aborted
// before Finish, pending SSE streams are closed unterminated.
func (s *Server) Close() error {
	if s.httpSrv == nil {
		return nil
	}
	err := s.httpSrv.Close()
	s.subMu.Lock()
	if !s.done {
		for ch := range s.subs {
			close(ch)
		}
		s.subs = map[chan trace.Sample]struct{}{}
	}
	s.subMu.Unlock()
	return err
}

// publishLocked (gate held) appends newly closed sampler windows to
// the backlog and fans them out. Slow subscribers drop rows rather
// than stall the coordinator: each channel is buffered, and a full
// buffer skips that subscriber for this row (it still has the backlog
// endpoint to recover from).
func (s *Server) publishLocked() {
	if s.hooks.Timeline == nil {
		return
	}
	fresh := s.hooks.Timeline(len(s.rows))
	if len(fresh) == 0 {
		return
	}
	s.subMu.Lock()
	s.rows = append(s.rows, fresh...)
	for _, row := range fresh {
		for ch := range s.subs {
			select {
			case ch <- row:
			default:
			}
		}
	}
	s.subMu.Unlock()
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, `april run observatory
/progress   cycle, instructions, utilization, rate, ETA (JSON)
/counters   full counter-registry snapshot (JSON)
/metrics    Prometheus text exposition of the same counters
/timeline   sampler windows as Server-Sent Events (?from=N to replay)
/trace      Chrome-trace download of the event rings
/checkpoint restorable machine image download (april -restore)
`)
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	s.gate.Lock()
	p := s.hooks.Progress()
	s.gate.Unlock()
	s.subMu.Lock()
	p.Done, p.Result = s.done, s.result
	s.subMu.Unlock()
	wall := time.Since(s.started).Seconds()
	p.WallSeconds = wall
	if wall > 0 {
		p.CyclesPerSecond = float64(p.Cycle) / wall
	}
	if p.CyclesPerSecond > 0 && !p.Done && p.BudgetCycles > p.Cycle {
		p.EtaBudgetSeconds = float64(p.BudgetCycles-p.Cycle) / p.CyclesPerSecond
	}
	writeJSON(w, p)
}

func (s *Server) handleCounters(w http.ResponseWriter, r *http.Request) {
	s.gate.Lock()
	snap := s.hooks.Counters()
	s.gate.Unlock()
	writeJSON(w, snap)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.gate.Lock()
	snap := s.hooks.Counters()
	s.gate.Unlock()
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, snap); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(buf.Bytes())
}

// handleTimeline streams sampler windows as SSE: first the backlog
// (from ?from=N, default 0), then live rows as the run publishes them,
// then one "done" event carrying the formatted result.
func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	if s.hooks.Timeline == nil {
		http.Error(w, "timeline sampler not armed", http.StatusNotFound)
		return
	}
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			http.Error(w, "bad from", http.StatusBadRequest)
			return
		}
		from = n
	}
	fl, canFlush := w.(http.Flusher)

	// Atomically: copy the backlog and subscribe, so no row falls in
	// between. A finished run skips the subscription.
	s.subMu.Lock()
	backlog := s.rows
	var ch chan trace.Sample
	if !s.done {
		ch = make(chan trace.Sample, 256)
		s.subs[ch] = struct{}{}
	}
	s.subMu.Unlock()
	if ch != nil {
		defer func() {
			s.subMu.Lock()
			delete(s.subs, ch)
			s.subMu.Unlock()
		}()
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	if from > len(backlog) {
		from = len(backlog)
	}
	for _, row := range backlog[from:] {
		if writeSample(w, row) != nil {
			return
		}
	}
	if canFlush {
		fl.Flush()
	}
	if ch == nil {
		s.writeDone(w)
		return
	}
	ctx := r.Context()
	for {
		select {
		case row, ok := <-ch:
			if !ok {
				s.writeDone(w)
				return
			}
			if writeSample(w, row) != nil {
				return
			}
			if canFlush {
				fl.Flush()
			}
		case <-ctx.Done():
			return
		}
	}
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.hooks.ChromeTrace == nil {
		http.Error(w, "tracer not armed", http.StatusNotFound)
		return
	}
	// Buffer under the gate: the exporter walks the live event rings,
	// so the machine must stay quiescent for the whole render — but
	// the client's download must not hold the run hostage.
	var buf bytes.Buffer
	s.gate.Lock()
	err := s.hooks.ChromeTrace(&buf)
	s.gate.Unlock()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="april-trace.json"`)
	w.Write(buf.Bytes())
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.hooks.Checkpoint == nil {
		http.Error(w, "checkpointing not armed", http.StatusNotFound)
		return
	}
	// Serialize under the gate — the snapshot walks live machine state
	// — then stream the image without holding the run hostage.
	s.gate.Lock()
	img, err := s.hooks.Checkpoint()
	s.gate.Unlock()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", `attachment; filename="april-checkpoint.img"`)
	w.Write(img)
}

func (s *Server) writeDone(w io.Writer) {
	s.subMu.Lock()
	result := s.result
	s.subMu.Unlock()
	payload, _ := json.Marshal(map[string]string{"result": result})
	WriteSSEEvent(w, "done", string(payload))
}

func writeSample(w io.Writer, row trace.Sample) error {
	payload, err := json.Marshal(row)
	if err != nil {
		return err
	}
	return WriteSSEEvent(w, "window", string(payload))
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintf(w, "\n// encode error: %v\n", err)
	}
}
