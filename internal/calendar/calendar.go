// Package calendar files small integer ids at the simulated cycle at
// which they act, so a structure that waits (a torus channel finishing
// a transmission, a controller outbox holding a delayed reply) is
// visited at that cycle and at no other.
//
// The near future is a timing wheel: one slot per cycle for the next
// Span cycles, with an occupancy bitmap that makes "when is the next
// entry" a bit-scan. Anything Span or more cycles out waits in a
// min-heap and moves into the wheel as the clock reaches it; nothing a
// caller does per cycle touches an entry that is not due. Ids filed
// for one cycle come back in ascending order, whatever order they were
// filed in, and a repeated id comes back once.
//
// The calendar keeps no clock of its own. Every call names the
// caller's current cycle, which must never decrease and must never
// pass a filed cycle without Due being called for it.
package calendar

import (
	"math/bits"
	"slices"
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

// Calendar is ready to use as its zero value.
type Calendar struct {
	occ   uint64 // bit s is set iff slots[s] is nonempty
	slots [Span][]int32
	over  []entry // min-heap on (at, id): entries Span or more cycles out when filed
}

// Add files id at cycle at, which must lie after now.
func (c *Calendar) Add(now, at uint64, id int) {
	if at-now < Span {
		c.put(at, int32(id))
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

// put appends id to at's wheel slot; Due puts the slot in order.
func (c *Calendar) put(at uint64, id int32) {
	s := at % Span
	c.slots[s] = append(c.slots[s], id)
	c.occ |= 1 << s
}

// Due removes and returns the ids filed at cycle now, ascending. The
// slice is the slot's own storage (slots keep their capacity, so the
// steady state allocates nothing): it is valid until the caller's clock
// has moved Span cycles on, and Add calls made while walking it land in
// other slots.
func (c *Calendar) Due(now uint64) []int32 {
	for len(c.over) > 0 && c.over[0].at-now < Span {
		c.put(c.over[0].at, c.over[0].id)
		c.popOver()
	}
	s := now % Span
	if c.occ&(1<<s) == 0 {
		return nil
	}
	c.occ &^= 1 << s
	ids := c.slots[s]
	c.slots[s] = ids[:0]
	if len(ids) > 32 {
		slices.Sort(ids)
	} else { // nearly sorted and short: insertion sort wins
		for i := 1; i < len(ids); i++ {
			v, j := ids[i], i
			for ; j > 0 && ids[j-1] > v; j-- {
				ids[j] = ids[j-1]
			}
			ids[j] = v
		}
	}
	return slices.Compact(ids)
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
