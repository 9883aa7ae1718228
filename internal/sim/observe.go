package sim

import (
	"fmt"

	"april/internal/isa"
	"april/internal/proc"
	"april/internal/trace"
)

// EnableTracing attaches a ring-buffer event tracer to every layer of
// the machine — processors, engines, runtimes, scheduler, cache
// controllers, and network — and returns it. capacity is the per-node
// ring size in events (0 = trace.DefaultCapacity). Tracing is purely
// observational: simulated results are bit-identical with it on or off
// (the differential tests in trace_test.go hold it to that). Call
// before Run.
func (m *Machine) EnableTracing(capacity int) *trace.Tracer {
	t := trace.New(len(m.Nodes), capacity, &m.now)
	m.tracer = t
	for i, n := range m.Nodes {
		node := i
		n.Proc.Trace = t
		n.RT.Trace = t
		n.Proc.Engine.OnSwitch = func(from, to int) { t.EmitSwitch(node, from, to) }
	}
	m.Sched.Trace = t
	if m.net != nil {
		m.net.trace = t
		m.net.net.SetTracer(t)
	}
	return t
}

// Tracer returns the attached tracer, or nil when tracing is off.
func (m *Machine) Tracer() *trace.Tracer { return m.tracer }

// EnableTimeline attaches a periodic per-node activity sampler with the
// given window size in cycles (0 = trace.DefaultSampleInterval) and
// returns it. Run closes a window at every interval boundary plus one
// final partial window, so the series sums to the end-of-run Stats
// exactly. Like tracing, sampling never perturbs simulated results: it
// only shortens fast-forward jumps to land on window boundaries, and
// skips compose. Call before Run.
func (m *Machine) EnableTimeline(interval uint64) *trace.Sampler {
	m.sampler = trace.NewSampler(interval)
	m.lastSample = make([]proc.Stats, len(m.Nodes))
	return m.sampler
}

// Sampler returns the attached sampler, or nil when the timeline is
// off.
func (m *Machine) Sampler() *trace.Sampler { return m.sampler }

// sample closes the current window: one row per node with the cycle
// category deltas since the previous sample plus instantaneous gauges.
func (m *Machine) sample() {
	m.settleNow()
	for i, n := range m.Nodes {
		cur := n.Proc.Stats
		last := &m.lastSample[i]
		row := trace.Sample{
			Cycle:    m.now,
			Node:     i,
			Useful:   cur.UsefulCycles - last.UsefulCycles,
			Wait:     cur.WaitCycles - last.WaitCycles,
			Trap:     cur.TrapCycles - last.TrapCycles,
			Idle:     cur.IdleCycles - last.IdleCycles,
			Resident: n.Proc.Engine.LoadedThreads(),
		}
		row.Utilization = trace.SafeRate(row.Useful, row.Total())
		if n.cache != nil {
			row.OutstandingRemote = len(n.cache.pending)
		}
		if m.net != nil {
			row.NetInFlight = m.net.net.InFlight()
		}
		m.sampler.Append(row)
		*last = cur
	}
}

// CounterRegistry builds a registry exposing every subsystem's counters
// behind one Snapshot: the scheduler, each node's processor and engine,
// and (in ALEWIFE mode) each node's cache, directory, and controller,
// plus the network and machine-level totals. Each group reads the
// subsystem's own tagged stats struct in place, so snapshot after Run
// for final values. Register after EnableTracing: the trace counters
// join the machine group only when a tracer is attached.
func (m *Machine) CounterRegistry() *trace.Registry {
	r := &trace.Registry{}
	r.Register("scheduler", &m.Sched.Stats)
	// The opcode mix that drives the compiled tier's profile-guided
	// translation, maintained identically by both execution tiers.
	for k := range isa.NumMicroKinds {
		r.Gauge("isa", isa.MicroKind(k).String(), func() uint64 { return m.kindTotal(k) })
	}
	procs := make([]any, len(m.Nodes))
	stats := make([]any, len(m.Nodes))
	for i, n := range m.Nodes {
		procs[i], stats[i] = n.Proc, &n.Proc.Stats
	}
	if m.compileOn {
		// Compiled-tier coverage: dispatches executed inside fused
		// windows and translation outcomes. Registered only when the
		// tier is armed so oracle-path snapshots stay byte-stable.
		r.Sum("compile", procs)
		r.Register("compile", m.Nodes[0].Proc.Blocks)
		r.Gauge("compile", "dispatches", func() uint64 {
			var s uint64
			for k := range isa.NumMicroKinds {
				s += m.kindTotal(k)
			}
			return s
		})
	}
	if m.epochOn {
		// Epoch engine coverage (epoch.go, EpochStats).
		r.Register("epoch", &m.epochTel)
	}
	if m.park.period > 0 && m.Cfg.Tier != TierReference {
		// Idle-node parking (wake.go): host-side like the groups above,
		// registered only where nodes can park so oracle-path snapshots
		// stay byte-stable.
		r.Register("park", m.ParkTelemetry)
	}
	r.Register("memory", m.MemoryTelemetry)
	for i, n := range m.Nodes {
		r.Register(fmt.Sprintf("node%d.proc", i), &n.Proc.Stats, n.Proc.Engine)
		if ctl := n.cache; ctl != nil {
			r.Register(fmt.Sprintf("node%d.memory", i), &ctl.cache.Stats, &ctl.dir.Stats, &ctl.Stats, &ctl.ctlState)
		}
	}
	if m.net != nil {
		net := m.net.net
		r.Register("network", net.Stats)
		r.Gauge("network", "in_flight", func() uint64 { return uint64(net.InFlight()) })
	}
	r.Gauge("machine", "cycles", func() uint64 { return m.now })
	r.Sum("machine", stats)
	r.Gauge("machine", "threads", func() uint64 { return uint64(m.Sched.NumThreads()) })
	if t := m.tracer; t != nil {
		r.Gauge("machine", "trace_events", t.TotalEvents)
		r.Gauge("machine", "trace_dropped", t.DroppedEvents)
	}
	return r
}
