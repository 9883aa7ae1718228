// The epoch engine: multi-node execution through the compiled tier in
// per-node lanes, on perfect memory and on ALEWIFE alike.
//
// The compiled tier's isolated windows (compile.go) fire only when a
// cycle has exactly one stepper. The epoch engine covers cycles with
// two or more: each busy node runs its lane-safe ops (register ops,
// and a plain word of perfect memory or a clock-free hit in its own
// cache) up to laneCycles ahead on its own, through proc.RunAhead with
// the machine's lane log, and sleeps until the lane's end, while
// the machine sweeps those cycles in order through its normal
// per-cycle body. A lane is cut back to the exact (cycle, node)
// position where something outside it reaches into what it touched:
//
//   - (a) an access outside any lane to a word the lane touched, where
//     either side stores (laneWatch, through the memory's watch); on
//     ALEWIFE the processors' own accesses reach a lane only through
//     its controller, as a fill or recall in a set it hit (laneFabric);
//   - (b) on perfect memory, another lane: a lane refuses an op that
//     would touch a word another lane in flight touched where either
//     side stores (the log's word index), and that op runs per-op,
//     where (a) applies; on ALEWIFE coherence keeps lanes apart;
//   - (c) an IPI to the lane's node (noteIPI);
//   - (d) the run's end, an error or a crash (cutLanes).
//
// DESIGN.md ("Epoch execution") has the exactness argument, and
// TestLanesMatchReference holds the compiled tier to the reference
// tier where lanes are cut back.

package sim

import "april/internal/mem"

// EpochTelemetry returns the epoch engine's counters (all-zero when
// the engine is disarmed). Read while the machine is quiescent.
func (m *Machine) EpochTelemetry() EpochStats { return m.epochTel }

// laneCycles caps a lane. Per node, a busy 64-node ALEWIFE queens run
// retires 30 to 75 consecutive lane-safe ops between its own fabric
// events; a longer lane is cut back and replayed more often, a shorter
// one pays its start and wake-up more often. 24, 32 and 48 measured
// alike (DESIGN.md, "Epoch execution"). A lane's end is filed in the
// wake calendar's wheel and unfiled when it is cut back, so laneCycles
// must stay below calendar.Span-1.
const laneCycles = 32

// laneSet is the machine side of lanes. A lane in flight on node i
// covers cycles [span[i].start, span[i].end): its ops already ran, and
// node i sleeps in the machine's wake calendar until end, like a node
// inside a multi-cycle operation. Lanes start in cycles where two or
// more nodes step or a lane is already in flight (a lone stepper takes
// fusedStep's isolated window instead), end no later than bound, and
// retire when their node wakes.
type laneSet struct {
	on    bool       // armed: compiled tier, two or more nodes
	start bool       // lanes may start in the current cycle
	bound uint64     // the cycle no lane may reach: run limit, sampler boundary
	span  []laneSpan // per node; end == 0 when no lane is in flight
	live  []int      // nodes with a lane in flight
	hi    uint64     // the latest end of a lane in flight, or of a retired one
	pos   int        // the node stepping now; len(Nodes) outside stepNodes
	late  []int      // nodes cut back into the current cycle, ascending

	// hook is laneWatch, bound once: the memory's watch while a lane
	// is in flight.
	hook func(addr uint32, store bool)
}

// laneSpan is one node's lane in flight; at is its index in live.
type laneSpan struct {
	start, end uint64
	at         int
}

// startLane runs node id's next ops as a lane from cycle now+1, right
// after its Step at (now, id) retired an inline op. It reports whether
// any ran: the node then sleeps until the lane's end.
func (m *Machine) startLane(id int) bool {
	ls := &m.lanes
	s := m.now + 1
	if s >= ls.bound {
		return false
	}
	k := min(ls.bound-s, laneCycles)
	if c := m.laneCap; c > 0 {
		k = min(k, c-1)
	}
	if k == 0 {
		return false
	}
	ran, _, _, _, _ := m.Nodes[id].Proc.RunAhead(k, nil, m.epochLog)
	if ran == 0 {
		m.epochLog.Retire(id)
		return false
	}
	if len(ls.live) == 0 {
		m.Mem.SetWatch(ls.hook)
	}
	e := s + uint64(ran)
	ls.span[id] = laneSpan{s, e, len(ls.live)}
	ls.live = append(ls.live, id)
	ls.hi = max(ls.hi, e)
	m.wake.Add(m.now, e, id)
	m.Nodes[id].lastRetired = e - 1
	t := &m.epochTel
	t.Lanes++
	t.LaneOps += uint64(ran)
	t.Cycles += uint64(ran)
	return true
}

// retireLane commits node id's lane: the node woke at the lane's end,
// so no position the lane's ops precede is left.
func (m *Machine) retireLane(id int) {
	ls := &m.lanes
	sp := &ls.span[id]
	last := ls.live[len(ls.live)-1]
	ls.live[sp.at] = last
	ls.span[last].at = sp.at
	ls.live = ls.live[:len(ls.live)-1]
	*sp = laneSpan{}
	m.epochLog.Retire(id)
	if len(ls.live) == 0 {
		m.Mem.SetWatch(nil)
	}
}

// retireLanes commits every lane when a run loop returns: lanes end by
// its limit, so none is ahead of it, and their cycles are in the
// watchdog's baseline already.
func (m *Machine) retireLanes() {
	ls := &m.lanes
	for _, id := range ls.live {
		ls.span[id] = laneSpan{}
		m.epochLog.Retire(id)
	}
	ls.live, ls.late = ls.live[:0], ls.late[:0]
	ls.start, ls.pos, ls.hi = false, len(m.Nodes), 0
	m.Mem.SetWatch(nil)
}

// cutLane cuts node id's lane back to the position (c, before): its
// ops at cycles after c, and at c itself when id > before, are undone,
// and the node steps per-op from there. before is a node id, or
// len(Nodes) for cycle c's fabric tick. With join, a node cut back
// into cycle c steps later in it (stepNodes takes it from late);
// without, the cycle ends at before and the node does not step in it.
func (m *Machine) cutLane(id int, c uint64, before int, cause *uint64, join bool) {
	ls := &m.lanes
	sp := &ls.span[id]
	e := c + 1
	if id > before {
		e = c
	}
	if e >= sp.end {
		return // no op of the lane follows the position
	}
	if e < sp.start {
		panic("sim: a lane cut back before its start")
	}
	m.epochLog.Cut(m.Nodes[id].Proc, int(e-sp.start))
	t := &m.epochTel
	*cause++
	t.LaneUndoneOps += sp.end - e
	t.Cycles -= sp.end - e
	t.LaneReplayedOps += e - sp.start
	m.wake.Remove(sp.end, id)
	sp.end = e
	m.Nodes[id].lastRetired = e - 1
	switch {
	case e > c || before < 0:
		// Before any node of cycle c the node steps in it: the
		// calendar has not handed out cycle c yet.
		m.wake.Add(m.now, e, id)
	case join:
		i := len(ls.late)
		for i > 0 && ls.late[i-1] > id {
			i--
		}
		ls.late = append(ls.late, 0)
		copy(ls.late[i+1:], ls.late[i:])
		ls.late[i] = id
	}
	ls.hi = 0
	for _, l := range ls.live {
		ls.hi = max(ls.hi, ls.span[l].end)
	}
}

// cutLanes cuts every lane back to (now, before), where the run ends
// or errors: the reference loop steps no node after before in the
// cycle. before < 0 is cycle now's start, where a watchdog between
// cycles reports.
func (m *Machine) cutLanes(before int) {
	ls := &m.lanes
	for _, id := range ls.live {
		m.cutLane(id, m.now, before, &m.epochTel.LaneCutsEnd, false)
	}
	ls.late = ls.late[:0]
}

// laneFabric is the fabric's laneHook: node's controller, in the tick
// of cycle now, is about to fill or recall block. Either changes only
// block's cache set (LRU stamps are per set), so it cuts back a lane
// that hit that set and still has ops after the tick, and spares any
// other.
func (m *Machine) laneFabric(node int, block uint32) {
	if m.lanes.span[node].end <= m.now+1 {
		return
	}
	c := m.net.ctls[node]
	shift := c.blockShift - 2 // word index to block
	set := c.cache.SetIndex(block)
	for _, t := range m.epochLog.Touches(node) {
		if c.cache.SetIndex(t.Idx>>shift) == set {
			m.cutLane(node, m.now, len(m.Nodes), &m.epochTel.LaneCutsFabric, false)
			return
		}
	}
	m.epochTel.LaneSparesFabric++
}

// laneWatch is the memory's watch while lanes are in flight: inside
// the Step at (now, pos), something outside the lanes is about to read
// (store false) or write the word at addr. A lane that stored the
// word, or read a word about to be written, is cut back to the
// position first. On perfect memory the log's word index names those
// lanes. On ALEWIFE only the run-time system and block transfers reach
// memory past the caches, and only nodes holding the word's block can
// have touched it: the home directory lists them. Cuts made by a read
// and by a store are counted apart.
func (m *Machine) laneWatch(addr uint32, store bool) {
	ls := &m.lanes
	cause := &m.epochTel.LaneCutsWord
	if !store {
		cause = &m.epochTel.LaneCutsWordRead
	}
	idx := addr / mem.WordBytes
	f := m.net
	if f == nil {
		for _, id := range m.epochLog.Reaches(idx, store) {
			m.cutLane(id, m.now, ls.pos, cause, true)
		}
		return
	}
	e, ok := f.ctls[f.dist.Home(addr)].dir.Probe(addr >> f.ctls[0].blockShift)
	if !ok {
		return
	}
	for _, id := range ls.live {
		if id != int(e.Owner) && !e.Sharers.Has(id) {
			continue
		}
		for _, t := range m.epochLog.Touches(id) {
			if t.Idx == idx && (store || t.Stored) {
				m.cutLane(id, m.now, ls.pos, cause, true)
				break
			}
		}
	}
}

// laneProgress advances the deadlock watchdog's baseline over the
// cycles lanes retired in: every lane in flight covers the cycles from
// its node's last Step to its end, so the newest passed cycle any lane
// covers is min(now, hi) - 1.
func (m *Machine) laneProgress() {
	if c := min(m.now, m.lanes.hi); c > 0 && c-1 > m.lastProgress {
		m.lastProgress = c - 1
	}
}
