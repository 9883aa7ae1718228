package sim

// Crash forensics: when a run aborts — deadlock, livelock, cycle-budget
// exhaustion, an invariant violation, or a recovered runtime memory
// fault — the machine snapshots itself into a fault.Report so the
// failure can be localized instead of guessed at from a one-line
// error. cmd/april renders the report with -autopsy.

import (
	"slices"

	"april/internal/fault"
	"april/internal/network"
)

// CrashError wraps a run-ending error with the machine snapshot taken
// at the moment of failure. Error() delegates to the underlying error,
// so existing callers (and tests) that match on message text are
// unaffected; callers that want the forensics use errors.As.
type CrashError struct {
	Report *fault.Report
	Err    error
}

func (e *CrashError) Error() string { return e.Err.Error() }

func (e *CrashError) Unwrap() error { return e.Err }

// crash packages a run-ending error with a full machine snapshot.
// Every crash comes between cycles, so lanes still ahead of now go back
// first: the report shows the state at now, as the reference loop's
// does. (The deadlock message, built before, never sees a lane ahead:
// a lane in flight keeps lastProgress at now-1.)
func (m *Machine) crash(reason string, err error) error {
	m.cutLanes(-1)
	return &CrashError{Report: m.buildReport(reason, err), Err: err}
}

// traceTailEvents is how many trailing trace-ring events per node a
// report carries.
const traceTailEvents = 8

// buildReport snapshots the machine. Cold path: runs once, on failure.
func (m *Machine) buildReport(reason string, cause error) *fault.Report {
	r := &fault.Report{Reason: reason, Cycle: m.now, Message: cause.Error()}
	if m.checker != nil {
		r.Violations = m.checker.Violations()
	}
	if m.ckptValid {
		r.HasCheckpoint = true
		r.CheckpointCycle = m.ckptCycle
		r.RestoreCmd = m.ckptCmd
		r.CheckpointBytes = m.ckptBytes
	}

	blocked := make([]int, len(m.Nodes))
	m.Sched.BlockedByNode(blocked)
	for i, n := range m.Nodes {
		f := n.Proc.Engine.Active()
		ns := fault.NodeStatus{
			Node:        i,
			PC:          f.PC,
			Frame:       n.Proc.Engine.FP(),
			ThreadID:    f.ThreadID,
			Resident:    n.Proc.Engine.LoadedThreads(),
			Halted:      n.Proc.Halted,
			Retired:     n.Proc.Stats.Instructions,
			LastRetired: n.lastRetired,
			PendingIPIs: n.Proc.PendingIPIs(),
			Ready:       m.Sched.ReadyOn(i),
		}
		if n.cache != nil {
			for block, ms := range n.cache.pending {
				ns.Outstanding = append(ns.Outstanding, fault.MissStatus{
					Block:    block,
					Home:     m.net.dist.Home(block * m.net.cfg.Cache.BlockBytes),
					Write:    ms.write,
					Age:      m.net.now - ms.start,
					Poisoned: ms.poisoned,
				})
			}
			slices.SortFunc(ns.Outstanding, func(a, b fault.MissStatus) int {
				return int(a.Block) - int(b.Block)
			})
		}
		r.Nodes = append(r.Nodes, ns)
	}

	r.Sched = fault.SchedStatus{
		Live:    m.Sched.LiveThreads(),
		Ready:   m.Sched.ReadyCount(),
		Blocked: m.Sched.BlockedCount(),
	}
	m.Sched.ForEachWaiter(func(addr uint32, threads []int) {
		r.Sched.Waiters = append(r.Sched.Waiters, fault.WaiterStatus{
			Addr:    addr,
			Threads: slices.Clone(threads),
		})
	})

	if m.net != nil {
		ns := &fault.NetStatus{
			InFlight: m.net.net.InFlight(),
			Live:     m.net.net.LiveMessages(),
		}
		if t, ok := m.net.net.(*network.Torus); ok {
			ns.Links = t.Links(nil)
		}
		if m.plan != nil {
			ns.StalledLinks = m.plan.StalledLinks()
		}
		r.Net = ns
	}

	if m.tracer != nil {
		r.TraceTails = make(map[int][]string, len(m.Nodes))
		for i := range m.Nodes {
			ring := m.tracer.Node(i)
			if ring == nil {
				continue
			}
			evs := ring.Events()
			if len(evs) > traceTailEvents {
				evs = evs[len(evs)-traceTailEvents:]
			}
			if len(evs) == 0 {
				continue
			}
			tail := make([]string, 0, len(evs))
			for _, ev := range evs {
				tail = append(tail, ev.String())
			}
			r.TraceTails[i] = tail
		}
	}
	return r
}
