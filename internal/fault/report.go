package fault

import (
	"fmt"
	"strings"
)

// Report reasons.
const (
	ReasonDeadlock  = "deadlock"     // no instruction retired for the watchdog window
	ReasonLivelock  = "livelock"     // retiring, but remote operations stuck beyond any protocol bound
	ReasonBudget    = "cycle-budget" // MaxCycles exhausted before main returned
	ReasonInvariant = "invariant"    // a Checker recorded a violation
	ReasonMemFault  = "memory-fault" // runtime access outside the simulated arena
)

// Report is the crash forensics record: a machine-wide snapshot taken
// when a run aborts. It replaces the old one-line ErrDeadlock string
// with enough state to localize the wedge — which nodes are stuck on
// which blocks, what the network still holds, and which links (if any)
// a fault plan has pinned.
type Report struct {
	Reason  string // one of the Reason* constants
	Cycle   uint64 // simulated cycle of the snapshot
	Message string // the underlying error text

	Nodes []NodeStatus
	Sched SchedStatus
	Net   *NetStatus // nil for machines without an interconnect model

	Violations []*InvariantError // non-empty iff Reason == ReasonInvariant

	// TraceTails holds the last few trace-ring events per traced node,
	// already rendered ("[cycle] node kind ..."), oldest first. Empty
	// when tracing was not enabled.
	TraceTails map[int][]string

	// Checkpoint recovery: when the run was writing periodic machine
	// images, the most recent one's cycle and the command line that
	// resumes from it. HasCheckpoint distinguishes "checkpointing off"
	// from "crashed at cycle 0 before the first image".
	HasCheckpoint   bool
	CheckpointCycle uint64
	CheckpointBytes int // image size; 0 when the driver took no snapshot
	RestoreCmd      string
}

// NodeStatus is one processor's state at crash time.
type NodeStatus struct {
	Node        int
	PC          uint32 // active frame's program counter
	Frame       int    // active hardware frame index
	ThreadID    int    // thread bound to the active frame (-1: none)
	Resident    int    // threads loaded in hardware frames
	Halted      bool
	Retired     uint64 // instructions retired by this node
	LastRetired uint64 // cycle of this node's most recent retirement
	PendingIPIs int
	Ready       int // ready threads queued on this node
	// Outstanding lists this node's in-flight remote operations,
	// sorted by block.
	Outstanding []MissStatus
}

// MissStatus is one outstanding remote cache operation.
type MissStatus struct {
	Block    uint32
	Home     int
	Write    bool
	Age      uint64 // cycles since the request was issued
	Poisoned bool   // fill will be dropped and retried (protocol recall hit mid-miss)
}

// SchedStatus summarizes the scheduler at crash time.
type SchedStatus struct {
	Live    int // threads not yet dead
	Ready   int
	Blocked int
	// Waiters lists full/empty wait addresses with the threads queued
	// on each, sorted by address.
	Waiters []WaiterStatus
}

// WaiterStatus is one blocked-waiter list.
type WaiterStatus struct {
	Addr    uint32
	Threads []int
}

// NetStatus is the interconnect census at crash time.
type NetStatus struct {
	InFlight int // messages in channels and inboxes
	Live     int // pool-tracked live messages (should equal InFlight at a tick boundary)
	// Links lists non-idle torus channels (busy or queued); empty for
	// the ideal network, which has no channel structure.
	Links []LinkState
	// StalledLinks echoes the fault plan's permanently-stalled
	// channels, if a plan was active.
	StalledLinks []int
}

// LinkState is one torus channel's occupancy.
type LinkState struct {
	Channel int // flat channel id
	Node    int // owning node
	Dim     int // torus dimension
	Dir     int // 0: negative, 1: positive
	Busy    int // cycles until the head packet finishes transmitting
	Queued  int // packets waiting on this channel
	Stalled bool
}

// Render formats the report as a multi-section text block — the
// output of `cmd/april -autopsy`.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== april autopsy: %s at cycle %d ==\n", r.Reason, r.Cycle)
	if r.Message != "" {
		fmt.Fprintf(&b, "cause: %s\n", r.Message)
	}
	if r.HasCheckpoint {
		fmt.Fprintf(&b, "last checkpoint: cycle %d (%d cycles before the crash)",
			r.CheckpointCycle, r.Cycle-r.CheckpointCycle)
		if r.CheckpointBytes > 0 && len(r.Nodes) > 0 {
			fmt.Fprintf(&b, ", image %d bytes (%d per node)", r.CheckpointBytes, r.CheckpointBytes/len(r.Nodes))
		}
		b.WriteByte('\n')
		if r.RestoreCmd != "" {
			fmt.Fprintf(&b, "resume with: %s\n", r.RestoreCmd)
		}
	}

	fmt.Fprintf(&b, "\nscheduler: %d live, %d ready, %d blocked\n",
		r.Sched.Live, r.Sched.Ready, r.Sched.Blocked)
	for _, w := range r.Sched.Waiters {
		fmt.Fprintf(&b, "  wait %#x: threads %v\n", w.Addr, w.Threads)
	}

	b.WriteString("\nnodes:\n")
	for _, n := range r.Nodes {
		fmt.Fprintf(&b, "  node %2d: pc=%#x frame=%d thread=%d resident=%d ready=%d retired=%d last-retired@%d",
			n.Node, n.PC, n.Frame, n.ThreadID, n.Resident, n.Ready, n.Retired, n.LastRetired)
		if n.Halted {
			b.WriteString(" HALTED")
		}
		if n.PendingIPIs > 0 {
			fmt.Fprintf(&b, " ipis=%d", n.PendingIPIs)
		}
		b.WriteByte('\n')
		for _, ms := range n.Outstanding {
			op := "read"
			if ms.Write {
				op = "write"
			}
			fmt.Fprintf(&b, "    miss block %#x home=%d %s age=%d", ms.Block, ms.Home, op, ms.Age)
			if ms.Poisoned {
				b.WriteString(" poisoned")
			}
			b.WriteByte('\n')
		}
	}

	if r.Net != nil {
		fmt.Fprintf(&b, "\nnetwork: %d in flight (%d pool-live)\n", r.Net.InFlight, r.Net.Live)
		for _, l := range r.Net.Links {
			fmt.Fprintf(&b, "  link %3d (node %d dim %d dir %d): busy=%d queued=%d",
				l.Channel, l.Node, l.Dim, l.Dir, l.Busy, l.Queued)
			if l.Stalled {
				b.WriteString(" STALLED (fault plan)")
			}
			b.WriteByte('\n')
		}
		if len(r.Net.StalledLinks) > 0 {
			fmt.Fprintf(&b, "  fault plan permanently stalls links %v\n", r.Net.StalledLinks)
		}
	}

	if len(r.Violations) > 0 {
		b.WriteString("\ninvariant violations:\n")
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "  %s\n", v.Error())
		}
	}

	if len(r.TraceTails) > 0 {
		b.WriteString("\ntrace tails:\n")
		// Nodes slice is already sorted; use it to order the tails.
		for _, n := range r.Nodes {
			tail := r.TraceTails[n.Node]
			if len(tail) == 0 {
				continue
			}
			fmt.Fprintf(&b, "  node %d:\n", n.Node)
			for _, line := range tail {
				fmt.Fprintf(&b, "    %s\n", line)
			}
		}
	}
	return b.String()
}
