// The work-proportional run loops' node scheduler. Every node is in
// exactly one of three places, by when and why it next Steps:
//
//   - the machine's sorted running list: nodes executing 1-cycle
//     instructions, which step every cycle with no queue traffic;
//   - the wakeQueue: nodes inside a multi-cycle operation, keyed by the
//     absolute cycle they next Step;
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
// sleeps in the wake queue and parks after its first real poll (parked
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
// the bound idle nodes used to impose through the wake queue. Epoch
// lanes (epoch.go) refuse traps and I/O, so they fill no queue and
// post no IPI: a parked poll between a lane's ops finds what it would
// have found, and lanes need no bound from the park set.

package sim

import "math/bits"

// wakeQueue schedules sleeping nodes' wake-ups by absolute simulated
// cycle: a binary min-heap of (wake, node) pairs, so heap traffic is
// paid once per multi-cycle sleep rather than once per cycle per node.
//
// Determinism: the heap orders ties by node id, and the run loop never
// lets simulated time pass a scheduled wake (it steps cycle by cycle
// once next() == now), so popDue always yields nodes in ascending id
// order — exactly the order the reference loop steps them in.
type wakeQueue struct {
	heap []wakeEntry
}

type wakeEntry struct {
	wake uint64
	node int32
}

// noWake is next()'s empty-queue sentinel (matches network.NoEvent).
const noWake = ^uint64(0)

// init empties the queue, reserving room for every node.
func (q *wakeQueue) init(nodes int) {
	q.heap = make([]wakeEntry, 0, nodes)
}

func (e wakeEntry) less(o wakeEntry) bool {
	return e.wake < o.wake || (e.wake == o.wake && e.node < o.node)
}

// next reports the earliest scheduled wake cycle, or noWake when no
// node sleeps.
func (q *wakeQueue) next() uint64 {
	if len(q.heap) == 0 {
		return noWake
	}
	return q.heap[0].wake
}

// push schedules node to wake at the given cycle.
func (q *wakeQueue) push(node int, wake uint64) {
	q.heap = append(q.heap, wakeEntry{wake: wake, node: int32(node)})
	i := len(q.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.heap[i].less(q.heap[parent]) {
			break
		}
		q.heap[i], q.heap[parent] = q.heap[parent], q.heap[i]
		i = parent
	}
}

// popDue removes every node due at exactly cycle now and appends their
// ids to buf (in ascending id order). A wake earlier than now would
// mean the run loop skipped a scheduled step — a determinism bug — so
// it panics loudly instead of silently reordering.
func (q *wakeQueue) popDue(now uint64, buf []int) []int {
	for len(q.heap) > 0 && q.heap[0].wake <= now {
		if q.heap[0].wake < now {
			panic("sim: wake queue entry in the past (missed node step)")
		}
		buf = append(buf, int(q.heap[0].node))
		q.pop()
	}
	return buf
}

// mergeSorted appends the merge of two ascending, disjoint id lists to
// dst (which must not alias a or b).
func mergeSorted(dst, a, b []int) []int {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			dst = append(dst, a[i])
			i++
		} else {
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

func (q *wakeQueue) pop() {
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.heap = q.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(q.heap) && q.heap[l].less(q.heap[small]) {
			small = l
		}
		if r < len(q.heap) && q.heap[r].less(q.heap[small]) {
			small = r
		}
		if small == i {
			return
		}
		q.heap[i], q.heap[small] = q.heap[small], q.heap[i]
		i = small
	}
}

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
	next   []uint64 // per node: cycle of its next uncharged poll; noWake = not parked

	// Host-side telemetry (ParkStats); never read by simulated state.
	parks, unparks, elided uint64
}

// init empties the set. period is the profile's idle-poll cost; a
// period under 2 cycles disables parking (such a node stays on the
// running list), as does period 0 for lazy-mode machines.
func (s *parkSet) init(nodes, period int) {
	s.n, s.ipis = 0, 0
	s.next = make([]uint64, nodes)
	for i := range s.next {
		s.next[i] = noWake
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

func (s *parkSet) has(id int) bool { return s.next[id] != noWake }

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
	s.next[id] = noWake
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
// parked node, or noWake when none is parked.
func (s *parkSet) nextPoll(now uint64) uint64 {
	if s.n == 0 {
		return noWake
	}
	for d := uint64(0); d < s.period; d++ {
		if s.count[(now+d)%s.period] > 0 {
			return now + d
		}
	}
	return noWake
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

// laneWheel holds the nodes asleep in lanes (epoch.go), keyed by the
// cycle their lane ends. A lane is at most laneCycles long, so the wake
// cycles in flight span fewer than wheelSlots cycles and a ring of id
// bitsets, one per cycle mod wheelSlots, holds them: waking is a bit
// scan in ascending id, and a lane cut back moves its node between
// slots in O(1), neither of which a heap entry would give. occ marks
// the slots holding any node, so the next wake is one bit scan.
type laneWheel struct {
	words int      // bitset words per slot
	bits  []uint64 // wheelSlots x words, slot-major
	count [wheelSlots]int
	occ   uint64
	n     int
}

const wheelSlots = 64 // > laneCycles + 1

func (w *laneWheel) init(nodes int) {
	w.words = (nodes + 63) / 64
	w.bits = make([]uint64, wheelSlots*w.words)
}

// push schedules node id to wake at cycle at, fewer than wheelSlots
// cycles from now.
func (w *laneWheel) push(id int, at uint64) {
	s := int(at % wheelSlots)
	w.bits[s*w.words+id>>6] |= 1 << (id & 63)
	w.count[s]++
	w.occ |= 1 << s
	w.n++
}

// remove unschedules node id, scheduled at cycle at.
func (w *laneWheel) remove(id int, at uint64) {
	s := int(at % wheelSlots)
	w.bits[s*w.words+id>>6] &^= 1 << (id & 63)
	if w.count[s]--; w.count[s] == 0 {
		w.occ &^= 1 << s
	}
	w.n--
}

// next returns the earliest scheduled wake at or after now, or noWake.
func (w *laneWheel) next(now uint64) uint64 {
	if w.occ == 0 {
		return noWake
	}
	return now + uint64(bits.TrailingZeros64(bits.RotateLeft64(w.occ, -int(now%wheelSlots))))
}

// popDue removes the nodes waking at cycle now and appends their ids,
// ascending, to buf.
func (w *laneWheel) popDue(now uint64, buf []int) []int {
	s := int(now % wheelSlots)
	if w.count[s] == 0 {
		return buf
	}
	row := w.bits[s*w.words : (s+1)*w.words]
	for i, word := range row {
		for word != 0 {
			buf = append(buf, i<<6+bits.TrailingZeros64(word))
			word &= word - 1
		}
		row[i] = 0
	}
	w.n -= w.count[s]
	w.count[s] = 0
	w.occ &^= 1 << s
	return buf
}
