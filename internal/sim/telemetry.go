// Host-side telemetry: counters describing how the run loop behaved on
// the host — epoch lanes, parked idle nodes, resident memory pages.
// None of it ever feeds back into simulated state: the counters are
// pure observations of decisions the loop had already made, so
// simulated results are bit-identical with telemetry read or ignored.
// Observability surfaces (CounterRegistry, internal/obs) read these
// only while the machine is quiescent.
package sim

import "april/internal/mem"

// EpochStats aggregates the epoch engine's lanes (epoch.go) over a
// run: what they ran, undid and why they were cut back. All-zero when
// the engine is disarmed: on one node and on TierReference. Pure
// host-side observation: simulated results are bit-identical under
// both tiers.
type EpochStats struct {
	// Cycles counts the node-cycles lanes committed: every lane op
	// retires at cost 1, so it is LaneOps less LaneUndoneOps.
	Cycles uint64 `json:"cycles" counter:"cycles"`

	// Lanes counts lanes that ran at least one op and LaneOps the ops
	// they ran; LaneUndoneOps of those were undone by cut-backs and
	// LaneReplayedOps re-executed to bring a cut lane to its cut. The
	// LaneCuts* count cut-backs by cause: a fill or recall at the lane's
	// own controller in a set the lane hit (ALEWIFE), an access outside
	// the lanes to a word the lane touched (the run-time system or a
	// block transfer, and on perfect memory also another node's per-op
	// access), an IPI to the lane's node, and the end of the run (or an
	// error). The word cuts are split by the access outside the lanes:
	// LaneCutsWord counts those a store made, LaneCutsWordRead those a
	// read made (a read cuts back only a lane that stored the word).
	// LaneSparesFabric counts the fills and recalls that spared a lane
	// with ops after the tick: it hit no block of their set.
	Lanes            uint64 `json:"lanes" counter:"lanes"`
	LaneOps          uint64 `json:"lane_ops" counter:"lane_ops"`
	LaneUndoneOps    uint64 `json:"lane_undone_ops" counter:"lane_undone_ops"`
	LaneReplayedOps  uint64 `json:"lane_replayed_ops" counter:"lane_replayed_ops"`
	LaneCutsFabric   uint64 `json:"lane_cuts_fabric" counter:"lane_cuts_fabric"`
	LaneCutsWord     uint64 `json:"lane_cuts_word" counter:"lane_cuts_word"`
	LaneCutsWordRead uint64 `json:"lane_cuts_word_read" counter:"lane_cuts_word_read"`
	LaneCutsIPI      uint64 `json:"lane_cuts_ipi" counter:"lane_cuts_ipi"`
	LaneCutsEnd      uint64 `json:"lane_cuts_end" counter:"lane_cuts_end"`
	LaneSparesFabric uint64 `json:"lane_spares_fabric" counter:"lane_spares_fabric"`
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
