// Package calendar files small integer ids at the simulated cycle at
// which they act, so whatever waits is visited at that cycle and at no
// other: a node asleep in a multi-cycle operation or a lane, a torus
// channel finishing a transmission, a controller outbox holding a
// delayed reply.
//
// The near future is a timing wheel: one id bitset per cycle for the
// next Span cycles, a count per slot, and an occupancy word that makes
// "when is the next entry" a bit-scan. Anything Span or more cycles out
// waits in a min-heap and moves into the wheel as the clock reaches it;
// nothing a caller does per cycle touches an entry that is not due. Due
// walks a slot's bits, so ids filed for one cycle come back in
// ascending order, whatever order they were filed in, and a repeated id
// comes back once.
//
// Every call names the caller's current cycle, which must never
// decrease and must never pass a filed cycle without Due being called
// for it. The calendar keeps only the cycle of its latest Due, enough
// for Due to panic on any entry the caller's clock passed.
package calendar

import (
	"fmt"
	"math/bits"
)

// Span is the wheel's reach in cycles.
const Span = 64

// None is Next's answer for an empty calendar.
const None = ^uint64(0)

type entry struct {
	at uint64
	id int32
}

func (a entry) before(b entry) bool { return a.at < b.at || a.at == b.at && a.id < b.id }

// Calendar is ready to use after Init.
type Calendar struct {
	occ   uint64       // bit s is set iff slot s holds an id
	words int          // bitset words per slot
	bits  []uint64     // Span x words, slot-major
	count [Span]int    // ids per slot
	at    [Span]uint64 // the cycle an occupied slot holds
	over  []entry      // min-heap on (at, id): entries Span or more cycles out when filed
	last  uint64       // the cycle of the latest Due
	due   []int        // Due's answer, reused
}

// Init empties the calendar for ids 0 through ids-1, reusing its
// storage.
func (c *Calendar) Init(ids int) {
	c.words = (ids + 63) / 64
	if n := Span * c.words; cap(c.bits) >= n {
		c.bits = c.bits[:n]
		clear(c.bits)
	} else {
		c.bits = make([]uint64, n)
	}
	c.occ, c.count, c.over, c.last = 0, [Span]int{}, c.over[:0], 0
}

// Add files id at cycle at, which must not lie before now.
func (c *Calendar) Add(now, at uint64, id int) {
	if at-now < Span {
		c.put(at, id)
		return
	}
	c.over = append(c.over, entry{at, int32(id)})
	for i := len(c.over) - 1; i > 0; {
		p := (i - 1) / 2
		if !c.over[i].before(c.over[p]) {
			break
		}
		c.over[i], c.over[p] = c.over[p], c.over[i]
		i = p
	}
}

// put sets id's bit in at's wheel slot. (A slot still holding a
// passed cycle keeps it, for Due to report.)
func (c *Calendar) put(at uint64, id int) {
	s := at % Span
	if c.occ&(1<<s) == 0 {
		c.occ |= 1 << s
		c.at[s] = at
	}
	w := &c.bits[int(s)*c.words+id>>6]
	if *w&(1<<(id&63)) == 0 {
		*w |= 1 << (id & 63)
		c.count[s]++
	}
}

// Remove unfiles id from cycle at, where it was filed fewer than Span
// cycles ahead.
func (c *Calendar) Remove(at uint64, id int) {
	s := at % Span
	c.bits[int(s)*c.words+id>>6] &^= 1 << (id & 63)
	if c.count[s]--; c.count[s] == 0 {
		c.occ &^= 1 << s
	}
}

// Due removes and returns the ids filed at cycle now, ascending. The
// slice is the calendar's own and valid until the next Due; Add calls
// made while walking it land in the wheel, not in it.
func (c *Calendar) Due(now uint64) []int {
	for len(c.over) > 0 && c.over[0].at-now < Span {
		c.put(c.over[0].at, int(c.over[0].id))
		c.popOver()
	}
	if len(c.over) > 0 && c.over[0].at < now {
		missed(c.over[0].at, now)
	}
	last := c.last
	c.last = now
	if c.occ == 0 {
		return nil
	}
	// Nothing is filed before the latest Due, so a missed entry lies in
	// [last, now): the slots of those cycles may hold only later ones.
	if now > last {
		gone := ^uint64(0)
		if now-last < Span {
			gone = 1<<(now-last) - 1
		}
		for occ := c.occ & bits.RotateLeft64(gone, int(last%Span)); occ != 0; occ &= occ - 1 {
			if s := bits.TrailingZeros64(occ); c.at[s] < now {
				missed(c.at[s], now)
			}
		}
	}
	s := now % Span
	if c.occ&(1<<s) == 0 {
		return nil
	}
	ids := c.due[:0]
	row := c.bits[int(s)*c.words : int(s+1)*c.words]
	for i, n := 0, c.count[s]; n > 0; i++ {
		for w := row[i]; w != 0; w &= w - 1 {
			ids = append(ids, i<<6+bits.TrailingZeros64(w))
			n--
		}
		row[i] = 0
	}
	c.count[s] = 0
	c.occ &^= 1 << s
	c.due = ids
	return ids
}

// missed reports an entry at cycle at that the caller's clock passed
// without Due: the structure filed there was never visited.
func missed(at, now uint64) {
	panic(fmt.Sprintf("calendar: entry at cycle %d passed without Due (now %d)", at, now))
}

func (c *Calendar) popOver() {
	n := len(c.over) - 1
	c.over[0] = c.over[n]
	c.over = c.over[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			return
		}
		if r := l + 1; r < n && c.over[r].before(c.over[l]) {
			l = r
		}
		if !c.over[l].before(c.over[i]) {
			return
		}
		c.over[i], c.over[l] = c.over[l], c.over[i]
		i = l
	}
}

// Next returns the earliest filed cycle at or after now, or None.
func (c *Calendar) Next(now uint64) uint64 {
	next := uint64(None)
	if c.occ != 0 {
		// Rotated so that bit i stands for cycle now+i.
		next = now + uint64(bits.TrailingZeros64(bits.RotateLeft64(c.occ, -int(now%Span))))
	}
	if len(c.over) > 0 && c.over[0].at < next {
		next = c.over[0].at
	}
	return next
}

// Each calls f for every filed entry, in no particular order; an id
// filed twice at one heap cycle may be reported twice.
func (c *Calendar) Each(f func(at uint64, id int)) {
	for occ := c.occ; occ != 0; occ &= occ - 1 {
		s := bits.TrailingZeros64(occ)
		for i, w := range c.bits[s*c.words : (s+1)*c.words] {
			for ; w != 0; w &= w - 1 {
				f(c.at[s], i<<6+bits.TrailingZeros64(w))
			}
		}
	}
	for _, e := range c.over {
		f(e.at, int(e.id))
	}
}
