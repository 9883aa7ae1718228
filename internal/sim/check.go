package sim

// Runtime invariant checking (sim.Config.Check). The checkers are
// strictly read-only observers: they probe cache, directory, scheduler
// and message-pool state without mutating any of it, so a clean run is
// bit-identical with checking on or off — which is what lets the fault
// matrix run with checkers enabled and still compare results against
// unchecked baselines.
//
// The coherence checks are transient-tolerant: a full-map protocol is
// never globally consistent while messages are in flight, so each
// invariant states what must hold in *every* reachable interleaving,
// not just quiescent ones:
//
//   - single-writer: at most one cache holds a block Exclusive.
//   - dir-exclusive-mismatch: an Exclusive holder implies its home
//     directory entry is Exclusive with Owner == holder (grants set
//     both atomically, and every transition away from that pair is
//     acknowledged by the holder surrendering the line first).
//   - dirty-not-exclusive: only an Exclusive line may be dirty.
//   - dir-shared-mismatch: a Shared holder is either a directory
//     sharer, or the still-registered Exclusive owner mid-downgrade
//     (Fetch arrived, FetchAck not yet processed at the home). The
//     sharer set may be a superset of actual holders (Shared victims
//     drop silently); it must not be missing one.
//
// The interlock audit is exact: a resident line's interlock flag is
// set iff its controller's locked map holds the block (the flag is
// what a hit reads, the map what the recall paths read).
//
// Scheduler conservation and pool ownership are exact (not transient)
// at their check points: thread-state transitions are atomic within
// one trap handler, and the message pool balances at tick boundaries.

import (
	"april/internal/cache"
	"april/internal/directory"
)

// schedCheckInterval is how often (in cycles) the run loops re-verify
// scheduler conservation; every cycle would be sound but wasteful.
const schedCheckInterval = 1024

// checkBlock audits one block's global coherence state. Called after
// every protocol transition touching the block; allocation-free unless
// it records a violation.
func (f *netFabric) checkBlock(block uint32) {
	ck := f.check
	home := f.dist.Home(block * f.cfg.Cache.BlockBytes)
	entry, known := f.ctls[home].dir.Probe(block)
	dirState := directory.Uncached
	owner := -1
	if known {
		dirState = entry.State
		owner = int(entry.Owner)
	}
	excl := -1
	for id, ctl := range f.ctls {
		ln, hit := ctl.cache.Find(block)
		if !hit {
			continue
		}
		if _, held := ctl.locked[block]; ln.Locked() != held {
			ck.Violate("interlock/line-flag", id, block,
				"resident line's interlock flag is %v but locked has the block: %v", ln.Locked(), held)
		}
		switch ln.State() {
		case cache.Exclusive:
			if excl >= 0 {
				ck.Violate("coherence/single-writer", id, block,
					"nodes %d and %d both hold the block exclusive", excl, id)
			}
			excl = id
			if dirState != directory.Exclusive || owner != id {
				ck.Violate("coherence/dir-exclusive-mismatch", id, block,
					"node holds exclusive but home %d directory is %v with owner %d", home, dirState, owner)
			}
		case cache.Shared:
			if ln.Dirty() {
				ck.Violate("coherence/dirty-not-exclusive", id, block,
					"shared line is dirty")
			}
			ok := (dirState == directory.Shared && known && entry.Sharers.Has(id)) ||
				(dirState == directory.Exclusive && owner == id)
			if !ok {
				ck.Violate("coherence/dir-shared-mismatch", id, block,
					"node holds shared but home %d directory is %v with owner %d", home, dirState, owner)
			}
		}
	}
}

// checkPool verifies message-pool ownership at the end of a fabric
// tick: every message checked out of a pool is accounted for by the
// network (in a channel, in flight, or in an undrained inbox). A
// mismatch means a consumer leaked a message or recycled one it did
// not own.
func (f *netFabric) checkPool() {
	live := f.net.LiveMessages()
	inFlight := f.net.InFlight()
	if live != inFlight {
		f.check.Violate("pool/ownership", -1, 0,
			"%d messages checked out of the pool but %d in the network", live, inFlight)
	}
}

// checkSched verifies thread conservation: every live thread is in
// exactly one place — a ready queue, a waiter list, or resident in a
// hardware task frame. Sound at any inter-cycle point because all
// state transitions happen atomically inside a single trap handler.
func (m *Machine) checkSched() {
	live := m.Sched.LiveThreads()
	ready := m.Sched.ReadyCount()
	blocked := m.Sched.BlockedCount()
	resident := 0
	for _, n := range m.Nodes {
		resident += n.Proc.Engine.LoadedThreads()
	}
	if live != ready+blocked+resident {
		m.checker.Violate("sched/conservation", -1, 0,
			"%d live threads but %d ready + %d blocked + %d resident = %d",
			live, ready, blocked, resident, ready+blocked+resident)
	}
}

// auditFinal is the end-of-run sweep: every directory entry and every
// cached line across the machine gets a full checkBlock pass, plus a
// final scheduler-conservation check. Cold path; runs once.
func (m *Machine) auditFinal() {
	if m.net != nil {
		seen := make(map[uint32]struct{})
		for _, ctl := range m.net.ctls {
			for _, block := range ctl.dir.Blocks() {
				if _, dup := seen[block]; dup {
					continue
				}
				seen[block] = struct{}{}
				m.net.checkBlock(block)
			}
			ctl.cache.ForEach(func(_ int, block uint32, _ cache.State, _ bool, _ uint64) {
				if _, dup := seen[block]; dup {
					return
				}
				seen[block] = struct{}{}
				m.net.checkBlock(block)
			})
		}
	}
	m.checkSched()
}
