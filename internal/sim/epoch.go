// The epoch engine: multi-node execution through the compiled tier,
// in windows across provably safe horizons on perfect memory and in
// per-node lanes on ALEWIFE.
//
// The compiled tier (compile.go) fires only when a cycle has exactly
// one stepper. The epoch engine generalizes its isolated-window proof
// from "one node runs while the rest sleep" to "this group of nodes
// runs undisturbed": before stepping a cycle with two or more
// steppers, the machine computes the group's safe horizon and executes
// every stepper through the superinstruction handlers for the whole
// window, paying the run loop's per-cycle costs (due-set pops, merges)
// once per window instead of once per cycle.
//
// Windows run on perfect memory, the configuration of the paper's
// Table 3 ("the processor simulator without the cache and network
// simulators", Section 7). With the ALEWIFE fabric a window would have
// to stop at every network and controller event of any node, and
// covered under 0.1% of cycles; there the engine runs lanes instead
// (after epochChunk below): each busy node runs its register ops and
// cache hits ahead on its own, and is cut back exactly where a fill or
// recall at its controller, a cache-bypassing access, an IPI or the
// run's end reaches into what it touched. DESIGN.md ("ALEWIFE lanes")
// has the exactness argument.
//
// The horizon proof. A window [now, B) is safe to execute when no
// event from outside the stepping group can occur inside it, and no
// stepper performs an op whose effects leave the node before B:
//
//   - B <= wakeq.next(): no sleeping node joins mid-window, so the
//     stepping group is constant. IPIs ride the I/O path and cannot
//     appear asynchronously: only a stepper's own STIO could post one,
//     and EpochRun refuses STIO.
//   - B <= sampler.NextBoundary(), limit and the deadlock deadline:
//     the observability and watchdog schedules stay exactly per-op.
//   - Every op executed inside the window is epoch-safe (EpochRun): a
//     trap-free superinstruction that retires at cost 1 and touches
//     only this node's state and plain words of perfect memory. Ops
//     the proof does not cover (traps, syscalls, strict-future
//     operands, full/empty flavors, FLUSH, I/O, HALT, run-ending
//     services) make EpochRun stop before them with no state touched;
//     the window commits the cycles before the refusal and the machine
//     resumes per-op at the refusing op's exact cycle — a mid-epoch
//     fallback, not a reorder.
//
// Node-major chunks. The reference interleaving is lockstep: one op
// per stepper per cycle, in ascending node id. A window runs in chunks
// of k cycles instead, each stepper's k ops back to back (a lane).
// Epoch-safe ops reach other nodes only through plain words of perfect
// memory, so when no word is touched by two lanes with at least one
// store, every op reads what it would in lockstep and the chunk ends
// in lockstep's state; the machine's EpochLog checks exactly that. A
// chunk that fails the check, stores to a page that is not resident or
// fills the log is rolled back and redone with k = 1, which is lockstep
// itself and needs no log. A lane refusing at its op j stops the chunk
// at (cycle j, lane); the earliest stop in that order wins, lanes after
// it need j ops and lanes before it j+1, so an earlier lane that ran
// further is rolled back and replayed to j+1. k starts at 1 in every
// window and doubles after each clean chunk up to proc.EpochBudget ops,
// which bounds the work a stop can waste by the work already committed.
//
// The committed prefix is bit-identical to per-cycle stepping, and the
// tier matrices in epoch_test.go hold the compiled tier, at several
// window caps and with forced conflicts, to that.

package sim

import (
	"math/bits"

	"april/internal/mem"
	"april/internal/proc"
)

// epochWindow tries to run the cycle's steppers through the compiled
// tier across the group's safe horizon. It returns full=true when the
// whole window committed: m.now advanced past it and every stepper
// remains a running 1-cycle node (the caller rebuilds the running list
// and continues its loop). Otherwise the window stopped at an
// epoch-unsafe op (or proved shorter than 2 cycles): any complete
// cycles are committed and m.now advanced to the stop cycle,
// steps[:si] have already stepped in it, and the caller finishes the
// cycle per-op from steps[si:] — the refused op executes at its exact
// reference cycle.
func (m *Machine) epochWindow(steps []int, limit uint64) (si int, full bool) {
	// Epoch-safe ops fill no ready queue and post no IPI, so parked
	// polls stay fruitless across a window — unless they already find
	// work, in which case they are steppers the group does not contain.
	if m.parkedWork() {
		return 0, false
	}
	// The window bound: every external-event source the horizon proof
	// enumerates. Identical structure to fusedStep's single-node bound.
	b := limit
	if m.sampler != nil {
		if nb := m.sampler.NextBoundary(); nb < b {
			b = nb
		}
	}
	if w := m.wakeq.next(); w < b {
		b = w
	}
	if dl := m.lastProgress + m.deadlockWin + 1; dl < b {
		b = dl
	}
	if c := m.windowCap; c > 0 && m.now+c < b {
		b = m.now + c
	}
	if b <= m.now+1 {
		return 0, false // a 0/1-cycle window cannot beat the per-cycle path
	}
	w := b - m.now

	// Chunks until the window ends or a lane stops: fc complete cycles
	// are committed, and a stop leaves steps[:si] stepped in the next.
	var fc uint64
	si = len(steps)
	kmax := max(uint64(proc.EpochBudget/len(steps)), 1)
	for k := uint64(1); fc < w && si == len(steps); {
		n := min(k, w-fc)
		var stop uint64
		if n == 1 {
			stop, si = m.lockstep(steps)
		} else if stop, si = m.epochChunk(steps, int(n)); si < 0 {
			si, k = len(steps), 1 // aborted: redo in lockstep
			continue
		}
		fc += stop
		k = min(2*k, kmax)
	}
	stopped := si < len(steps)
	if !stopped {
		si = 0
	}
	if fc == 0 && si == 0 {
		return 0, false // the very first op refused; nothing committed
	}

	// Commit the complete cycles; the partial one, if any, is closed by
	// the caller's normal end-of-cycle path.
	if fc > 0 {
		m.now += fc
		c := m.now - 1
		for _, id := range steps {
			m.Nodes[id].lastRetired = c
		}
		m.lastProgress = c
	}
	if si > 0 {
		for _, id := range steps[:si] {
			m.Nodes[id].lastRetired = m.now
		}
		m.lastProgress = m.now
	}

	t := &m.epochTel
	t.Windows++
	t.Cycles += fc
	t.Ops += fc*uint64(len(steps)) + uint64(si)
	t.PartialOps += uint64(si)
	if stopped {
		t.Fallbacks++
	}
	h := bits.Len64(fc)
	if h >= len(t.LenHist) {
		h = len(t.LenHist) - 1
	}
	t.LenHist[h]++
	return si, !stopped
}

// lockstep runs one cycle in the reference order: one op per stepper,
// ascending. It returns (1, len(steps)) when every stepper ran, and
// (0, si) when steps[si] refused after steps[:si] ran.
func (m *Machine) lockstep(steps []int) (stop uint64, si int) {
	for i, id := range steps {
		if ran, _ := m.Nodes[id].Proc.EpochRun(1, nil); ran == 0 {
			return 0, i
		}
	}
	return 1, len(steps)
}

// epochChunk runs k cycles node-major. It returns the chunk's stop as
// lockstep's would be: stop complete cycles, then steps[:si] stepped
// in the next (si == len(steps) when all k cycles completed). si < 0
// means the chunk aborted and every lane was rolled back to its start.
func (m *Machine) epochChunk(steps []int, k int) (stop uint64, si int) {
	l := m.epochLog
	l.Begin()
	m.epochTel.Chunks++
	// (at, lane) is the earliest refusal so far: lanes before it run
	// at+1 ops, the rest at. The starting value lets every lane run k.
	at, lane := k-1, len(steps)
	for i, id := range steps {
		n := at
		if i < lane {
			n++
		}
		ran, abort := m.Nodes[id].Proc.EpochRun(n, l)
		if abort {
			for j := i; j >= 0; j-- {
				l.Rollback(m.Nodes[steps[j]].Proc, j)
			}
			m.epochTel.Aborts++
			return 0, -1
		}
		if ran < n {
			at, lane = ran, i
		}
	}
	// No conflict: every lane ran exactly as in lockstep. Lanes before
	// the stop that ran past at+1 go back and replay to it.
	for i := 0; i < lane; i++ {
		if l.Ran(i) > at+1 {
			p := m.Nodes[steps[i]].Proc
			l.Rollback(p, i)
			if ran, _ := p.EpochRun(at+1, nil); ran != at+1 {
				panic("sim: an epoch lane's replay diverged from its first run")
			}
			m.epochTel.ReplayedOps += uint64(at + 1)
		}
	}
	if lane == len(steps) {
		at = k
	}
	return uint64(at), lane
}

// EpochTelemetry returns the epoch engine's counters (all-zero when
// the engine is disarmed). Read while the machine is quiescent.
func (m *Machine) EpochTelemetry() EpochStats { return m.epochTel }

// laneCycles caps an ALEWIFE lane. Per node, a busy 64-node queens run
// retires 30 to 75 consecutive lane-safe ops between its own fabric
// events; a longer lane is cut back and replayed more often, a shorter
// one pays its start and wake-up more often. 24, 32 and 48 measured
// alike (DESIGN.md, "ALEWIFE lanes"); it must stay below wheelSlots-1.
const laneCycles = 32

// laneSet is the machine side of ALEWIFE lanes. A lane in flight on
// node i covers cycles [span[i].start, span[i].end): its ops already
// ran, and node i sleeps in wheel until end. Lanes start in cycles
// where two or more nodes step or a lane is already in flight (a lone
// stepper takes fusedStep's isolated window instead), end no later
// than bound, and retire when their node wakes.
type laneSet struct {
	on    bool       // armed: compiled tier, ALEWIFE, two or more nodes
	start bool       // lanes may start in the current cycle
	watch bool       // the run loop keeps lastRetired (RunFor does not)
	bound uint64     // the cycle no lane may reach: run limit, sampler boundary
	span  []laneSpan // per node; end == 0 when no lane is in flight
	live  []int      // nodes with a lane in flight
	hi    uint64     // the latest end of a lane in flight, or of a retired one
	pos   int        // the node stepping now; len(Nodes) outside stepNodes
	late  []int      // nodes cut back into the current cycle, ascending
	wheel laneWheel  // nodes asleep in lanes, by end cycle
	due   []int      // the wheel's wake-ups of a cycle, scratch
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
	if c := m.windowCap; c > 0 {
		k = min(k, c-1)
	}
	if k == 0 {
		return false
	}
	ran, _ := m.Nodes[id].Proc.EpochRun(int(k), m.epochLog)
	if ran == 0 {
		m.epochLog.Retire(id)
		return false
	}
	e := s + uint64(ran)
	ls.span[id] = laneSpan{s, e, len(ls.live)}
	ls.live = append(ls.live, id)
	ls.hi = max(ls.hi, e)
	ls.wheel.push(id, e)
	if ls.watch {
		m.Nodes[id].lastRetired = e - 1
	}
	m.epochTel.Lanes++
	m.epochTel.LaneOps += uint64(ran)
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
}

// retireLanes commits every lane when a run loop returns: lanes end by
// its limit, so none is ahead of it, and their cycles are in the
// watchdog's baseline already (or, after RunFor, never go there).
func (m *Machine) retireLanes() {
	ls := &m.lanes
	for _, id := range ls.live {
		ls.span[id] = laneSpan{}
		m.epochLog.Retire(id)
	}
	ls.live, ls.late = ls.live[:0], ls.late[:0]
	ls.start, ls.pos, ls.hi = false, len(m.Nodes), 0
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
	t.LaneReplayedOps += e - sp.start
	ls.wheel.remove(id, sp.end)
	sp.end = e
	if ls.watch {
		m.Nodes[id].lastRetired = e - 1
	}
	switch {
	case e > c || before < 0:
		// Before any node of cycle c the node steps in it: the wheel's
		// slot for c is not popped yet.
		ls.wheel.push(id, e)
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
// of cycle now, is about to fill its cache (fill) or recall block from
// it. A fill moves the cache's LRU clock and may evict any line; a
// recall changes block's line. Either cuts back a lane that hit the
// cache, or block, and still has ops after the tick.
func (m *Machine) laneFabric(node int, block uint32, fill bool) {
	if m.lanes.span[node].end <= m.now+1 {
		return
	}
	ts := m.epochLog.Touches(node)
	if !fill {
		shift := m.net.ctls[node].blockShift - 2 // word index to block
		i := 0
		for i < len(ts) && ts[i].Idx>>shift != block {
			i++
		}
		ts = ts[i:]
	}
	if len(ts) > 0 {
		m.cutLane(node, m.now, len(m.Nodes), &m.epochTel.LaneCutsFabric, false)
	}
}

// laneWatch is the memory's bypass-access watch: the run-time system or
// a block transfer, inside the Step at (now, pos), is about to read
// (store false) or write the word at addr without the caches. A lane
// that stored the word, or read a word about to be written, is cut
// back to the position first. Only nodes holding the word's block can
// have touched it, and the home directory lists them.
func (m *Machine) laneWatch(addr uint32, store bool) {
	ls := &m.lanes
	if len(ls.live) == 0 {
		return
	}
	f := m.net
	e, ok := f.ctls[f.dist.Home(addr)].dir.Probe(addr >> f.ctls[0].blockShift)
	if !ok {
		return
	}
	idx := addr / mem.WordBytes
	for _, id := range ls.live {
		if id != e.Owner && !e.Sharers.Has(id) {
			continue
		}
		for _, t := range m.epochLog.Touches(id) {
			if t.Idx == idx && (store || t.Stored) {
				m.cutLane(id, m.now, ls.pos, &m.epochTel.LaneCutsBypass, true)
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
