package main

// The metric catalogue. BENCHMARK.json at the repository root lists the
// same names (benchmark_test.go holds the two together; `-manifest`
// regenerates the JSON from these tables).

// metricDef is one named metric: its unit, which direction is better,
// and — for end-to-end metrics — the share of the parent's median by
// which it may worsen before a change counts as a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	// Exact marks a number that comes from the simulated machine or a
	// deterministic count: two runs of one commit at one seed must agree
	// on it to the last digit, and -compare holds them to that.
	Exact bool
}

// Host time unless the comment says sim. Every workload reports every
// one of these, and none is ever 0.
var endToEnd = []metricDef{
	// Fastest of the set-ups taken in one run (sim.New + mult.Compile +
	// Machine.Load of the workload's machines).
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	// Fastest wall-clock of the timed region of one operation.
	{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.25},
	// Simulated machine cycles of one operation over run_s.
	{Name: "sim_cycles_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	// Child getrusage max RSS.
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
	// runtime.MemStats.TotalAlloc delta of one operation.
	{Name: "host_alloc_mb", Unit: "MiB", Better: "lower", Bound: 0.10},
	// sim: cycles to completion. Exact for one seed (a rep that differs
	// is a failed operation); the bound covers the spread across seeds
	// and is the limit for a change to the modelled design.
	{Name: "sim_cycles", Unit: "cycles", Better: "lower", Bound: 0.10, Exact: true},
	// sim: useful processor cycles over all processor cycles — the
	// paper's utilization. Exact for one seed, as sim_cycles.
	{Name: "sim_utilization", Unit: "ratio", Better: "higher", Bound: 0.10, Exact: true},
}

// Per-layer metrics; layer = module name. Unit costs (ns, us, ms) come
// from the micro-drives in layers_<module>.go and are the same on every
// workload up to noise; counts and ratios come from the traced run of
// the workload and are exact. A metric a workload cannot see (its
// machine is behind a public call, or the layer is not on its path)
// reads 0 there.
var perLayer = []metricDef{
	// mult
	{Name: "mult.compile_us", Unit: "us", Better: "lower"},
	// isa
	{Name: "isa.predecode_ns_per_inst", Unit: "ns", Better: "lower"},
	{Name: "isa.blocks_translated", Unit: "count", Better: "higher", Exact: true},
	// proc / core
	{Name: "proc.step_ns", Unit: "ns", Better: "lower"},
	{Name: "proc.fused_ns_per_inst", Unit: "ns", Better: "lower"},
	{Name: "core.switch_ns", Unit: "ns", Better: "lower"},
	{Name: "proc.sim_mips", Unit: "1/us", Better: "higher"},
	{Name: "proc.fused_frac", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "proc.epoch_cycles_pct", Unit: "%", Better: "higher", Exact: true},
	{Name: "proc.instructions", Unit: "count", Better: "lower", Exact: true},
	{Name: "proc.useful_cycles", Unit: "cycles", Better: "lower", Exact: true},
	{Name: "proc.trap_cycles", Unit: "cycles", Better: "lower", Exact: true},
	{Name: "proc.wait_cycles", Unit: "cycles", Better: "lower", Exact: true},
	{Name: "proc.idle_cycles", Unit: "cycles", Better: "lower", Exact: true},
	{Name: "proc.switches", Unit: "count", Better: "lower", Exact: true},
	// rts
	{Name: "rts.push_pop_ns", Unit: "ns", Better: "lower"},
	{Name: "rts.steal_ns_n64", Unit: "ns", Better: "lower"},
	{Name: "rts.steal_ns_n1000", Unit: "ns", Better: "lower"},
	{Name: "rts.tasks_created", Unit: "count", Better: "lower", Exact: true},
	{Name: "rts.thread_steals", Unit: "count", Better: "lower", Exact: true},
	{Name: "rts.blocks", Unit: "count", Better: "lower", Exact: true},
	{Name: "rts.touches_unresolved", Unit: "count", Better: "lower", Exact: true},
	// mem
	{Name: "mem.access_ns", Unit: "ns", Better: "lower"},
	{Name: "mem.first_touch_us_per_page", Unit: "us", Better: "lower"},
	// cache
	{Name: "cache.lookup_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.insert_evict_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.hits", Unit: "count", Better: "higher", Exact: true},
	{Name: "cache.misses", Unit: "count", Better: "lower", Exact: true},
	{Name: "cache.evictions", Unit: "count", Better: "lower", Exact: true},
	{Name: "cache.miss_ratio", Unit: "ratio", Better: "lower", Exact: true},
	// directory
	{Name: "directory.entry_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "directory.entry_new_ns", Unit: "ns", Better: "lower"},
	{Name: "directory.sharers_ns", Unit: "ns", Better: "lower"},
	{Name: "directory.sharers_overflow_ns", Unit: "ns", Better: "lower"},
	{Name: "directory.read_misses", Unit: "count", Better: "lower", Exact: true},
	{Name: "directory.write_misses", Unit: "count", Better: "lower", Exact: true},
	{Name: "directory.invals_sent", Unit: "count", Better: "lower", Exact: true},
	{Name: "directory.writebacks", Unit: "count", Better: "lower", Exact: true},
	// network
	{Name: "network.torus_hop_ns", Unit: "ns", Better: "lower"},
	{Name: "network.torus_idle_tick_ns_n1000", Unit: "ns", Better: "lower"},
	{Name: "network.torus_next_event_ns", Unit: "ns", Better: "lower"},
	{Name: "network.ideal_msg_ns", Unit: "ns", Better: "lower"},
	{Name: "network.messages", Unit: "count", Better: "lower", Exact: true},
	{Name: "network.hops", Unit: "count", Better: "lower", Exact: true},
	{Name: "network.flits", Unit: "count", Better: "lower", Exact: true},
	{Name: "network.avg_latency_cycles", Unit: "cycles", Better: "lower", Exact: true},
	{Name: "network.max_latency_cycles", Unit: "cycles", Better: "lower", Exact: true},
	// sim
	{Name: "sim.new_ms_n64", Unit: "ms", Better: "lower"},
	{Name: "sim.new_ms_n1000", Unit: "ms", Better: "lower"},
	{Name: "sim.alewife1_ns_per_inst", Unit: "ns", Better: "lower"},
	{Name: "sim.ns_per_node_cycle", Unit: "ns", Better: "lower"},
	{Name: "sim.window_ns_per_cycle_p50", Unit: "ns", Better: "lower"},
	{Name: "sim.window_ns_per_cycle_p95", Unit: "ns", Better: "lower"},
	{Name: "sim.idle_machine_ns_per_cycle_n1000", Unit: "ns", Better: "lower"},
	{Name: "share.proc", Unit: "ratio", Better: "lower"},
	{Name: "share.cache", Unit: "ratio", Better: "lower"},
	{Name: "share.directory", Unit: "ratio", Better: "lower"},
	{Name: "share.network", Unit: "ratio", Better: "lower"},
	{Name: "share.rts", Unit: "ratio", Better: "lower"},
	{Name: "share.mem", Unit: "ratio", Better: "lower"},
	{Name: "sim.residual_share", Unit: "ratio", Better: "lower"},
	{Name: "sim.digest_changed", Unit: "count", Better: "lower", Exact: true},
	// snapshot (ckpt64 only)
	{Name: "snapshot.encode_s", Unit: "s", Better: "lower"},
	{Name: "snapshot.decode_s", Unit: "s", Better: "lower"},
	{Name: "snapshot.image_mb", Unit: "MiB", Better: "lower", Exact: true},
	{Name: "snapshot.bytes_per_node", Unit: "B", Better: "lower", Exact: true},
	{Name: "snapshot.seal_mb_per_s", Unit: "MiB/s", Better: "higher"},
	// trace / obs
	{Name: "trace.bench_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.armed_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.emit_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.registry_snapshot_us_n1000", Unit: "us", Better: "lower"},
	{Name: "obs.prometheus_write_us_n64", Unit: "us", Better: "lower"},
	// harness (grid_perfect only)
	{Name: "harness.grid_busy_frac", Unit: "ratio", Better: "higher"},
	// model (fidelity: grid_perfect and modelcheck16 only)
	{Name: "model.table3_log_err", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "model.eq1_rel_err_max", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "model.eq1_rel_err_fib_max", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "model.eq1_rel_err_queens_max", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "model.mean_resident_fib16", Unit: "count", Better: "higher", Exact: true},
}

// metricValue is one reported number. Samples keeps the raw per-rep
// values a median was taken over (timings only); it goes to the -out
// file, not to the driver's result line.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
}

// metricSet collects values against one of the tables above and refuses
// names the table does not hold, so the code and the catalogue cannot
// drift apart silently.
type metricSet struct {
	defs   []metricDef
	values map[string]metricValue
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: make(map[string]metricValue, len(defs))}
}

func (s *metricSet) unit(name string) string {
	for _, d := range s.defs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("benchmark: metric " + name + " is not in the catalogue")
}

func (s *metricSet) set(name string, v float64, samples ...float64) {
	if _, dup := s.values[name]; dup {
		panic("benchmark: metric " + name + " reported twice")
	}
	s.values[name] = metricValue{Value: v, Unit: s.unit(name), Samples: samples}
}

// fillZero gives every catalogue metric not yet reported the value 0:
// per-layer metrics a workload cannot see.
func (s *metricSet) fillZero() {
	for _, d := range s.defs {
		if _, ok := s.values[d.Name]; !ok {
			s.values[d.Name] = metricValue{Unit: d.Unit}
		}
	}
}

func (s *metricSet) get(name string) float64 { return s.values[name].Value }
