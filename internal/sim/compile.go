package sim

// Machine side of the compiled execution tier's isolated windows. The
// run loops call fusedStep when a cycle has exactly one stepper: if
// the machine can prove the node is isolated for a window of cycles
// (every other node sleeps past the window, the fabric fires no event
// inside it, and no watchdog watermark falls in it), then running the
// node's next ops back to back (proc.RunAhead without a lane log) is
// observably identical to interleaving them with the machine loop, and
// the window collapses to one multi-cycle step. Single-processor
// machines spend essentially the whole run inside such windows; larger
// machines use them across the stretches where one node runs while the
// rest sleep in multi-cycle operations. Cycles with two or more
// steppers run lanes instead (epoch.go).

import "fmt"

// fusedStep tries to run node id's compiled tier across an isolated
// window starting at the current cycle. It returns used=false when no
// window exists or nothing was executed (the caller then steps the
// node normally; no state was touched). When used, the window has been
// accounted exactly like one Step returning its total cycle count:
// wake bookkeeping, progress watermarks, and — for a run-ending or
// erroring window — the same final cycle the per-op loop reports.
func (m *Machine) fusedStep(id int, limit uint64) (used bool, err error) {
	n := m.Nodes[id]
	p := n.Proc

	// Window end: the earliest cycle anything other than this node can
	// act or be observed. Sampler boundaries and the run limit bound it
	// like fast-forward jumps; the deadlock deadline and (with a
	// fabric) the next event / wedge-scan watermark keep the watchdogs
	// and network replay on their per-op schedule.
	b := limit
	if m.sampler != nil {
		if nb := m.sampler.NextBoundary(); nb < b {
			b = nb
		}
	}
	if w := m.wake.Next(m.now); w < b {
		b = w
	}
	// The window runs trap handlers, which can fill a ready queue: it
	// ends before the next cycle a parked node polls (and does not open
	// in such a cycle — b == m.now below).
	if pn := m.park.nextPoll(m.now); pn < b {
		b = pn
	}
	if dl := m.lastProgress + m.deadlockWin + 1; dl < b {
		b = dl
	}
	if m.net != nil {
		ne := m.net.nextEvent()
		if ne <= m.now+1 {
			return false, nil
		}
		if ne-1 < b {
			b = ne - 1
		}
		if m.nextWedgeCheck < b {
			b = m.nextWedgeCheck
		}
	}
	if b <= m.now+1 {
		return false, nil // a 0/1-cycle window cannot beat a plain Step
	}

	start := m.now
	ran, c, lastRet, doneAt, ferr := p.RunAhead(b-start, &m.now, nil)
	if ferr != nil {
		// The erroring op starts c cycles into the window; report the
		// cycle the per-op loop would.
		m.skipTo(start + c)
		m.settleParked(m.now, id)
		return true, fmt.Errorf("cycle %d node %d: %w", m.now, p.ID, ferr)
	}
	if ran == 0 {
		return false, nil
	}
	if doneAt >= 0 {
		// The op at offset doneAt ended the run. Rewind to its cycle so
		// the caller's end-of-cycle accounting (tick, now++, watchdogs,
		// MainDone exit) lands exactly where the per-op loop stops.
		m.skipTo(start + uint64(doneAt))
		c -= uint64(doneAt)
		m.unparkAll(id)
	}
	if c > 1 {
		m.sleep(n, id, c)
	} else {
		m.wake.Add(m.now, m.now+1, id)
	}
	if lastRet >= 0 {
		m.lastProgress = start + uint64(lastRet)
		n.lastRetired = m.lastProgress
	}
	return true, nil
}

// skipTo moves the clock to cycle inside an isolated window, the idle
// fabric's with it: no fabric event falls in the window.
func (m *Machine) skipTo(cycle uint64) {
	if m.net != nil {
		m.net.advance(cycle - m.now)
	}
	m.now = cycle
}
