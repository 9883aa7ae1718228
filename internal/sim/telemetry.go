// Host-side telemetry: counters describing how the run loop behaved on
// the host — epoch windows, parked idle nodes, resident memory pages.
// None of it ever feeds back into simulated state: the counters are
// pure observations of decisions the loop had already made, so
// simulated results are bit-identical with telemetry read or ignored.
// Observability surfaces (CounterRegistry, internal/obs) read these
// only while the machine is quiescent.
package sim

import "april/internal/mem"

// EpochStats aggregates the epoch engine's behavior (epoch.go) over a
// run: how often multi-node windows opened, how many cycles and
// node-steps they absorbed, how they ended, and what their node-major
// chunks cost. All-zero when the engine is disarmed: on ALEWIFE
// machines and on TierReference. Pure host-side observation:
// simulated results are bit-identical under both tiers.
type EpochStats struct {
	Windows uint64 `json:"windows" counter:"windows"` // windows that executed at least one op
	Cycles  uint64 `json:"cycles" counter:"cycles"`   // complete simulated cycles committed inside windows
	Ops     uint64 `json:"ops" counter:"ops"`         // node-steps executed inside windows
	// PartialOps counts the steps of partially completed cycles (the
	// prefix executed before a mid-epoch stop); Fallbacks counts the
	// windows an epoch-unsafe op stopped (the rest ended at their
	// horizon bound).
	PartialOps uint64 `json:"partial_ops" counter:"partial_ops"`
	Fallbacks  uint64 `json:"fallbacks" counter:"fallbacks"`
	// Chunks counts the node-major chunks of two or more cycles the
	// windows ran, Aborts those rolled back and redone in lockstep, and
	// ReplayedOps the ops re-executed to bring a node that ran past a
	// chunk's stop back to it.
	Chunks      uint64 `json:"chunks" counter:"chunks"`
	Aborts      uint64 `json:"aborts" counter:"aborts"`
	ReplayedOps uint64 `json:"replayed_ops" counter:"replayed_ops"`
	// LenHist is the committed-window-length histogram in power-of-two
	// buckets: LenHist[b] counts windows whose complete-cycle count has
	// bit length b — bucket 0 is fc=0 (only a partial cycle committed),
	// bucket 1 is fc=1, bucket 2 is 2-3, bucket 3 is 4-7, and so on;
	// the last bucket absorbs everything longer. The registry emits
	// bucket b as len_p2_b.
	LenHist [17]uint64 `json:"len_hist" counter:"len_p2"`
}

// ParkStats is the park set's telemetry (wake.go): how the
// work-proportional loop handled idle nodes. Host-side like EpochStats —
// it differs between run loops by design (the reference loop executes
// every poll), so it stays out of snapshot images and result digests.
// For one program on one machine, PollsExecuted + PollsElided equals
// the reference loop's PollsExecuted.
type ParkStats struct {
	Parks         uint64 `json:"parks" counter:"parks"`                   // nodes moved into the park set
	Unparks       uint64 `json:"unparks" counter:"unparks"`               // parked nodes stepped because a poll could find work
	PollsElided   uint64 `json:"polls_elided" counter:"polls_elided"`     // idle polls charged in closed form, never executed
	PollsExecuted uint64 `json:"polls_executed" counter:"polls_executed"` // idle polls executed (Handler.Idle calls), parked or not
}

// ParkTelemetry returns the park set's counters. Read while the
// machine is quiescent.
func (m *Machine) ParkTelemetry() ParkStats {
	t := ParkStats{Parks: m.park.parks, Unparks: m.park.unparks, PollsElided: m.park.elided}
	for _, n := range m.Nodes {
		t.PollsExecuted += n.Proc.IdlePolls
	}
	return t
}

// MemoryStats is what the simulated memory costs the host: internal/mem
// keeps 4 KiB demand pages, resident once stored to. Host-side, but the
// same under every run loop — residency follows the program's stores.
type MemoryStats struct {
	PagesResident uint64 `json:"pages_resident" counter:"pages_resident"`
	ResidentBytes uint64 `json:"resident_bytes" counter:"resident_bytes"`
}

// MemoryTelemetry returns the memory's residency. Read while the
// machine is quiescent.
func (m *Machine) MemoryTelemetry() MemoryStats {
	pages := uint64(m.Mem.Resident())
	return MemoryStats{PagesResident: pages, ResidentBytes: pages * mem.PageBytes}
}
