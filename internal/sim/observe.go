package sim

import (
	"fmt"

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
// plus the network and machine-level totals. Closures read live state,
// so snapshot after Run for final values.
func (m *Machine) CounterRegistry() *trace.Registry {
	r := &trace.Registry{}
	sched := m.Sched
	r.Register("scheduler", func() map[string]uint64 {
		s := sched.Stats
		return map[string]uint64{
			"tasks_created":      s.TasksCreated,
			"steals":             s.Steals,
			"steal_words":        s.StealWords,
			"thread_steals":      s.ThreadSteals,
			"blocks":             s.Blocks,
			"requeues":           s.Requeues,
			"wakes":              s.Wakes,
			"touches_resolved":   s.TouchesResolved,
			"touches_unresolved": s.TouchesUnresolved,
		}
	})
	// The opcode mix that drives the compiled tier's profile-guided
	// translation, maintained identically by both execution tiers.
	r.Register("isa", m.KindTotals)
	if m.compileOn {
		// Compiled-tier coverage: dispatches executed inside fused
		// windows and translation outcomes. Registered only when the
		// tier is armed so oracle-path snapshots stay byte-stable.
		r.Register("compile", func() map[string]uint64 {
			var fused, inline, total uint64
			for _, n := range m.Nodes {
				fused += n.Proc.FusedOps
				inline += n.Proc.InlineSteps
				for _, k := range n.Proc.Kinds {
					total += k
				}
			}
			var epoch uint64
			for _, n := range m.Nodes {
				epoch += n.Proc.EpochOps
			}
			bs := m.Nodes[0].Proc.Blocks()
			return map[string]uint64{
				"fused_ops":         fused,
				"inline_steps":      inline,
				"epoch_ops":         epoch,
				"dispatches":        total,
				"translated_blocks": bs.Blocks,
				"unfusable_entries": bs.NoBlocks,
				"threshold":         uint64(bs.Threshold),
			}
		})
	}
	if m.epochOn {
		// Epoch engine coverage (epoch.go): windows committed, cycles and
		// ops they absorbed, mid-epoch fallbacks, node-major chunks with
		// their aborts and replayed ops, and the committed-window-length
		// histogram in power-of-two buckets
		// (len_p2_b counts windows of 2^(b-1)..2^b-1 complete cycles;
		// b=0 is windows that only committed a partial cycle).
		r.Register("epoch", func() map[string]uint64 {
			t := m.epochTel
			out := map[string]uint64{
				"windows":      t.Windows,
				"cycles":       t.Cycles,
				"ops":          t.Ops,
				"partial_ops":  t.PartialOps,
				"fallbacks":    t.Fallbacks,
				"chunks":       t.Chunks,
				"aborts":       t.Aborts,
				"replayed_ops": t.ReplayedOps,
			}
			for b, c := range t.LenHist {
				out[fmt.Sprintf("len_p2_%d", b)] = c
			}
			return out
		})
	}
	if m.park.period > 0 && m.Cfg.Tier != TierReference {
		// Idle-node parking (wake.go): host-side like the groups above,
		// registered only where nodes can park so oracle-path snapshots
		// stay byte-stable.
		r.Register("park", func() map[string]uint64 {
			t := m.ParkTelemetry()
			return map[string]uint64{
				"parks":          t.Parks,
				"unparks":        t.Unparks,
				"polls_elided":   t.PollsElided,
				"polls_executed": t.PollsExecuted,
			}
		})
	}
	r.Register("memory", func() map[string]uint64 {
		t := m.MemoryTelemetry()
		return map[string]uint64{
			"pages_resident": t.PagesResident,
			"resident_bytes": t.ResidentBytes,
		}
	})
	for i, n := range m.Nodes {
		p, eng, ctl := n.Proc, n.Proc.Engine, n.cache
		r.Register(fmt.Sprintf("node%d.proc", i), func() map[string]uint64 {
			s := p.Stats
			return map[string]uint64{
				"instructions":  s.Instructions,
				"useful_cycles": s.UsefulCycles,
				"wait_cycles":   s.WaitCycles,
				"trap_cycles":   s.TrapCycles,
				"idle_cycles":   s.IdleCycles,
				"loads":         s.LoadCount,
				"stores":        s.StoreCount,
				"switches":      eng.Switches,
			}
		})
		if ctl != nil {
			r.Register(fmt.Sprintf("node%d.memory", i), func() map[string]uint64 {
				c, d := ctl.cache, ctl.dir
				return map[string]uint64{
					"cache_hits":          c.Hits,
					"cache_misses":        c.Misses,
					"cache_evictions":     c.Evictions,
					"local_misses":        ctl.Stats.LocalMisses,
					"remote_misses":       ctl.Stats.RemoteMisses,
					"remote_latency_sum":  ctl.Stats.RemoteLatency,
					"upgrades":            ctl.Stats.Upgrades,
					"dir_read_misses":     d.ReadMisses,
					"dir_write_misses":    d.WriteMisses,
					"dir_invals_sent":     d.InvalsSent,
					"dir_fetches":         d.Fetches,
					"dir_writebacks":      d.Writebacks,
					"outstanding_remote":  uint64(len(ctl.pending)),
					"pending_home_tx":     uint64(len(ctl.homeTx)),
					"deferred_recalls":    uint64(len(ctl.recallQ)),
					"outstanding_flushes": uint64(ctl.fence),
				}
			})
		}
	}
	if m.net != nil {
		net := m.net.net
		r.Register("network", func() map[string]uint64 {
			s := net.Stats()
			return map[string]uint64{
				"messages":      s.Messages,
				"flits_sent":    s.FlitsSent,
				"delivered":     s.Delivered,
				"total_latency": s.TotalLatency,
				"max_latency":   s.MaxLatency,
				"hops":          s.Hops,
				"in_flight":     uint64(net.InFlight()),
			}
		})
	}
	r.Register("machine", func() map[string]uint64 {
		s := m.TotalStats()
		out := map[string]uint64{
			"cycles":        m.now,
			"instructions":  s.Instructions,
			"useful_cycles": s.UsefulCycles,
			"wait_cycles":   s.WaitCycles,
			"trap_cycles":   s.TrapCycles,
			"idle_cycles":   s.IdleCycles,
			"threads":       uint64(m.Sched.NumThreads()),
		}
		if t := m.tracer; t != nil {
			out["trace_events"] = t.TotalEvents()
			out["trace_dropped"] = t.DroppedEvents()
		}
		return out
	})
	return r
}
