// Host-side PDES telemetry: counters describing how the sharded run
// loop (shard.go) behaved on the host — classifier verdict mix,
// sequential-fallback frequency and reasons, barrier-wait and per-shard
// busy wall time, and fabric tick dispatch. Every field is written by
// the run loop's own goroutines into slots they already own (workers
// touch only their shard's ShardTelemetry entry, the coordinator owns
// PDESStats), and none of it ever feeds back into simulated state:
// wall-clock durations come from the host's monotonic clock and the
// counters are pure observations of decisions the loop had already
// made, so simulated results are bit-identical with telemetry read or
// ignored. Observability surfaces (CounterRegistry, internal/obs) read
// these only while the machine is quiescent.
package sim

import "april/internal/mem"

// PDESStats aggregates the sharded run loop's behavior over a run.
// All-zero on unsharded machines.
type PDESStats struct {
	// Cycle dispatch: every executed cycle in the sharded loop goes
	// down either the phased parallel path or the sequential fallback.
	ParallelCycles   uint64 // cycles run through the parallel phases
	SequentialCycles uint64 // cycles run through the sequential fallback
	FallbackStop     uint64 // fallbacks forced by a STOP classification
	FallbackSmall    uint64 // fallbacks because the cycle had fewer LOCAL steps than ShardBatch
	FallbackEpoch    uint64 // sequential cycles entered from a mid-epoch stop (epoch.go)

	// Barriers counts worker-pool joins (phase-1 steps and parallel
	// fabric ticks both join once). Epoch batches are the mechanism
	// that lowers barriers-per-1k-cycles below the per-cycle floor:
	// cycles committed inside a window never reach the phased path.
	Barriers uint64

	// Classifier verdicts, counted per examined step (cycles that fall
	// back still count the verdicts seen up to and including the STOP
	// that triggered the fallback).
	LocalSteps  uint64
	GlobalSteps uint64
	StopSteps   uint64

	// Host wall time (monotonic, nanoseconds). BarrierWaitNS is the
	// coordinator's time parked at phase joins after finishing its own
	// inline shard — pure synchronization overhead. LoopWallNS spans
	// the whole sharded loop including sequential fallbacks.
	BarrierWaitNS uint64
	LoopWallNS    uint64

	// Fabric tick dispatch: parallel cycles whose delivery+flush work
	// met ShardBatch fan out to the workers; smaller ones run inline.
	FabricParallelTicks uint64
	FabricInlineTicks   uint64
}

// ShardTelemetry is one shard's share of the parallel phases. Workers
// write only their own entry, so the slice is race-free by the same
// ownership argument as shardState.
type ShardTelemetry struct {
	LocalSteps    uint64 // phase-1 node steps executed by this shard
	BusyNS        uint64 // host wall time inside this shard's phase bodies
	FabricHandled uint64 // staged network deliveries handled
	FabricFlushes uint64 // dirty controllers matured (recalls + outbox)
}

// EpochStats aggregates the epoch engine's behavior (epoch.go) over a
// run: how often multi-node lockstep windows opened, how many cycles
// and node-steps they absorbed, and how they ended. All-zero when the
// engine is disarmed (DisableEpoch or anything disarming the compiled
// tier). Like PDESStats, pure host-side observation: simulated results
// are bit-identical with the engine on or off.
type EpochStats struct {
	Windows uint64 // windows that executed at least one op
	Cycles  uint64 // complete simulated cycles committed inside windows
	Ops     uint64 // node-steps executed inside windows
	// PartialOps counts the steps of partially completed cycles (the
	// prefix executed before a mid-epoch stop); Fallbacks counts the
	// windows an epoch-unsafe op stopped (the rest ended at their
	// horizon bound).
	PartialOps uint64
	Fallbacks  uint64
	// LenHist is the committed-window-length histogram in power-of-two
	// buckets: LenHist[b] counts windows whose complete-cycle count has
	// bit length b — bucket 0 is fc=0 (only a partial cycle committed),
	// bucket 1 is fc=1, bucket 2 is 2-3, bucket 3 is 4-7, and so on;
	// the last bucket absorbs everything longer.
	LenHist [17]uint64
}

// ParkStats is the park set's telemetry (wake.go): how the
// work-proportional loops handled idle nodes. Host-side like PDESStats —
// it differs between run loops by design (the reference loop executes
// every poll), so it stays out of snapshot images and result digests.
// For one program on one machine, PollsExecuted + PollsElided equals
// the reference loop's PollsExecuted.
type ParkStats struct {
	Parks         uint64 `json:"parks"`          // nodes moved into the park set
	Unparks       uint64 `json:"unparks"`        // parked nodes stepped because a poll could find work
	PollsElided   uint64 `json:"polls_elided"`   // idle polls charged in closed form, never executed
	PollsExecuted uint64 `json:"polls_executed"` // idle polls executed (Handler.Idle calls), parked or not
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
	PagesResident uint64 `json:"pages_resident"`
	ResidentBytes uint64 `json:"resident_bytes"`
}

// MemoryTelemetry returns the memory's residency. Read while the
// machine is quiescent.
func (m *Machine) MemoryTelemetry() MemoryStats {
	pages := uint64(m.Mem.Resident())
	return MemoryStats{PagesResident: pages, ResidentBytes: pages * mem.PageBytes}
}

// PDES returns the run loop's aggregate PDES telemetry. Zero-valued
// for unsharded machines. Read while the machine is quiescent (between
// RunWindow calls or after Run).
func (m *Machine) PDES() PDESStats { return m.pdes }

// ShardTelemetry returns a copy of the per-shard telemetry, one entry
// per shard of Partition(). Read while the machine is quiescent.
func (m *Machine) ShardTelemetry() []ShardTelemetry {
	out := make([]ShardTelemetry, len(m.shardTel))
	copy(out, m.shardTel)
	return out
}
