// The epoch engine: multi-node execution through the compiled tier
// across provably safe horizons, on perfect memory only.
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
// Windows are armed only on perfect memory, the configuration of the
// paper's Table 3 ("the processor simulator without the cache and
// network simulators", Section 7). With the ALEWIFE fabric a window
// would have to stop at every network and controller event, and on
// the benchmark's ALEWIFE workloads it covered under 0.1% of cycles.
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
