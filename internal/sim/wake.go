// The work-proportional run loop's node scheduler. Every node is in
// exactly one of two places, by when and why it next Steps:
//
//   - the wake calendar (calendar.Calendar): every node that steps
//     again, filed at the absolute cycle it next Steps — the next
//     cycle after a 1-cycle instruction, later inside a multi-cycle
//     operation or a lane (epoch.go) — and handed back in ascending id,
//     so Due(now) alone is a cycle's scheduled steppers;
//   - the parkSet: idle nodes. An idle processor re-polls the ready
//     queues every Profile.Idle cycles; the simulated machine polls, the
//     host replays only the polls that can find something.
//
// The loop therefore visits only nodes with work to do: the host cost
// of a simulated cycle is proportional to the work done in it, not to
// the machine size, and an idle node costs nothing until work (or an
// IPI) appears.
//
// Parking. A node parks after a Step when its next Step is provably a
// pure poll (rts.NodeRT.PurePoll: running, no IPI pending, no thread
// loaded in any frame, scheduler not lazy) at most one poll period
// away. Such a poll has exactly two outcomes, decided by
// rts.Scheduler.ReadyQueues alone: zero, and it touches nothing and
// costs Profile.Idle idle cycles; non-zero, and it loads a thread. The
// first kind is elided and charged in closed form; the second is
// executed at its reference position. Lazy-mode machines never park:
// their poll also runs FindMarker over simulated memory, which the host
// cannot watch. A node whose next Step is more than a period away
// sleeps in the wake calendar and parks after its first real poll (parked
// early, its own phase would find it before it is due).
//
// Order. The reference loop steps a cycle's nodes in ascending id, so a
// thread pushed by node j in cycle c is visible to the polls of cycle c
// with id > j and to none with id < j. The set is therefore indexed by
// poll phase (cycle mod period) and id, and Machine.stepNodes merges,
// into each gap before the next scheduled stepper, the parked ids of
// the current phase — but only while a ready queue is non-empty or a
// parked node holds an IPI (ioCtl.StoreIO, the only poster, reports
// it). Nothing but a Step fills a queue or posts an IPI, so between
// Steps the condition cannot change and fast-forward jumps are bounded
// by parked polls only while it holds.
//
// Settling. A parked node's elided polls are charged (IdleCycles +=
// k*period) when it unparks and, for nodes still parked, before anyone
// can look: at sampler boundaries and on every return from a run loop
// (so Snapshot, which only runs between calls, sees settled state and
// writes a parked node as the busy-remaining it already has in the
// canonical form). The final cycle and an erroring cycle settle polls
// at positions before (cycle, stopping node) only, as the reference
// loop breaks out of the cycle there; the final cycle then empties the
// set (Machine.unparkAll), so no later observer charges a poll that
// never happened.
//
// Windows and lanes. A fused window (compile.go) runs trap handlers,
// which can fill a ready queue, so it must not start in a cycle whose
// phase holds a parked node and must end before the next such cycle —
// the bound idle nodes used to impose through the wake calendar. Epoch
// lanes (epoch.go) refuse traps and I/O, so they fill no queue and
// post no IPI: a parked poll between a lane's ops finds what it would
// have found, and lanes need no bound from the park set.

package sim

import (
	"math/bits"

	"april/internal/calendar"
)

// parkSet holds the parked idle nodes: one id bitset per poll phase, so
// "the next parked id of this cycle's phase at or above j" is a
// find-first-set, and parking and unparking are O(1).
type parkSet struct {
	period uint64   // poll period in cycles (Profile.Idle); 0 = never park
	n      int      // parked nodes
	ipis   int      // parked nodes holding an undelivered IPI
	words  int      // bitset words per phase
	bits   []uint64 // period x words, phase-major
	count  []int    // parked nodes per phase
	next   []uint64 // per node: cycle of its next uncharged poll; calendar.None = not parked

	// Host-side telemetry (ParkStats); never read by simulated state.
	parks, unparks, elided uint64
}

// init empties the set. period is the profile's idle-poll cost; a
// period under 2 cycles disables parking (such a node's polls stay in
// the wake calendar), as does period 0 for lazy-mode machines.
func (s *parkSet) init(nodes, period int) {
	s.n, s.ipis = 0, 0
	s.next = make([]uint64, nodes)
	for i := range s.next {
		s.next[i] = calendar.None
	}
	if period < 2 {
		s.period = 0
		return
	}
	s.period = uint64(period)
	s.words = (nodes + 63) / 64
	s.bits = make([]uint64, period*s.words)
	s.count = make([]int, period)
}

func (s *parkSet) has(id int) bool { return s.next[id] != calendar.None }

// add parks node id with its next poll at cycle at.
func (s *parkSet) add(id int, at uint64) {
	ph := int(at % s.period)
	s.bits[ph*s.words+id>>6] |= 1 << (id & 63)
	s.count[ph]++
	s.next[id] = at
	s.n++
	s.parks++
}

func (s *parkSet) remove(id int) {
	ph := int(s.next[id] % s.period)
	s.bits[ph*s.words+id>>6] &^= 1 << (id & 63)
	s.count[ph]--
	s.next[id] = calendar.None
	s.n--
}

// scan returns the lowest parked id of the given phase in [lo, hi), or
// -1.
func (s *parkSet) scan(phase, lo, hi int) int {
	if lo >= hi || s.count[phase] == 0 {
		return -1
	}
	row := s.bits[phase*s.words : (phase+1)*s.words]
	w := lo >> 6
	word := row[w] &^ (1<<(lo&63) - 1)
	for word == 0 {
		w++
		if w<<6 >= hi {
			return -1
		}
		word = row[w]
	}
	if id := w<<6 + bits.TrailingZeros64(word); id < hi {
		return id
	}
	return -1
}

// nextPoll returns the first cycle at or after now whose phase holds a
// parked node, or calendar.None when none is parked.
func (s *parkSet) nextPoll(now uint64) uint64 {
	if s.n == 0 {
		return calendar.None
	}
	for d := uint64(0); d < s.period; d++ {
		if s.count[(now+d)%s.period] > 0 {
			return now + d
		}
	}
	return calendar.None
}

// elide advances node id past every poll at a cycle before end and
// returns how many there were.
func (s *parkSet) elide(id int, end uint64) uint64 {
	b := s.next[id]
	if b >= end {
		return 0
	}
	k := (end - b + s.period - 1) / s.period
	s.next[id] = b + k*s.period
	s.elided += k
	return k
}
