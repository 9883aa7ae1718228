// The epoch engine: multi-node execution through the compiled tier
// across provably safe horizons, on perfect memory only.
//
// The compiled tier (compile.go) fires only when a cycle has exactly
// one stepper. The epoch engine generalizes its isolated-window proof
// from "one node runs while the rest sleep" to "this group of nodes
// runs undisturbed": before stepping a cycle with two or more
// steppers, the machine computes the group's safe horizon and executes
// every stepper in lockstep through the superinstruction handlers for
// the whole window, paying the run loop's per-cycle costs (due-set
// pops, merges) once per window instead of once per cycle.
//
// Windows are armed only on perfect memory, the configuration of the
// paper's Table 3 ("the processor simulator without the cache and
// network simulators", Section 7). With the ALEWIFE fabric a window
// would have to stop at every network and controller event, and on
// the benchmark's ALEWIFE workloads it covered under 0.1% of cycles.
//
// The horizon proof. A window [now, B) is safe to execute in lockstep
// when no event from outside the stepping group can occur inside it,
// and no stepper performs an op whose effects leave the node before B:
//
//   - B <= wakeq.next(): no sleeping node joins mid-window, so the
//     stepping group is constant. IPIs ride the I/O path and cannot
//     appear asynchronously: only a stepper's own STIO could post one,
//     and EpochStep refuses STIO.
//   - B <= sampler.NextBoundary(), limit and the deadlock deadline:
//     the observability and watchdog schedules stay exactly per-op.
//   - Every op executed inside the window is epoch-safe (EpochStep):
//     a trap-free superinstruction that retires at cost 1 and touches
//     only this node's state and plain words of perfect memory. Ops
//     the proof does not cover (traps, syscalls, strict-future
//     operands, full/empty flavors, FLUSH, I/O, HALT, run-ending
//     services) make EpochStep refuse with no state touched; the window
//     commits the cycles before the refusal and the machine resumes
//     per-op at the refusing op's exact cycle — a mid-epoch fallback,
//     not a reorder.
//
// Within a window every stepper executes one op per simulated cycle in
// ascending node id — the reference loop's own interleaving — so
// commitment needs no rewind: the committed prefix is bit-identical to
// per-cycle stepping by construction, and the tier matrices in
// epoch_test.go hold every tier, at several window caps, to that.

package sim

import "math/bits"

// epochWindow tries to run the cycle's steppers in lockstep through
// the compiled tier across the group's safe horizon. It returns
// full=true when the whole window committed: m.now advanced past it
// and every stepper remains a
// running 1-cycle node (the caller rebuilds the running list and
// continues its loop). Otherwise the window stopped at an epoch-unsafe
// op (or proved shorter than 2 cycles): any complete cycles are
// committed and m.now advanced to the stop cycle, steps[:si] have
// already stepped in it, and the caller finishes the cycle per-op from
// steps[si:] — the refused op executes at its exact reference cycle.
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

	// Lockstep: one epoch-safe op per stepper per cycle, ascending node
	// id — the reference interleaving, executed without running-list
	// rebuilds (every op costs 1, so the group is invariant).
	var fc uint64
	stopped := false
loop:
	for fc = 0; fc < w; fc++ {
		for si = 0; si < len(steps); si++ {
			if !m.Nodes[steps[si]].Proc.EpochStep() {
				stopped = true
				break loop
			}
		}
	}
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

// EpochTelemetry returns the epoch engine's counters (all-zero when
// the engine is disarmed). Read while the machine is quiescent.
func (m *Machine) EpochTelemetry() EpochStats { return m.epochTel }
