package calendar

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func newCalendar(ids int) *Calendar {
	c := new(Calendar)
	c.Init(ids)
	return c
}

func wantDue(t *testing.T, c *Calendar, now uint64, want ...int) {
	t.Helper()
	if got := c.Due(now); len(got) != len(want) || len(got) > 0 && !slices.Equal(got, want) {
		t.Fatalf("Due(%d) = %v, want %v", now, got, want)
	}
}

func TestEmpty(t *testing.T) {
	c := newCalendar(1)
	if got := c.Next(5); got != None {
		t.Fatalf("Next on empty calendar = %d", got)
	}
	wantDue(t, c, 5)
}

// Ids filed for one cycle come back ascending and once each, whatever
// order they were filed in, from one bitset word or many.
func TestSameSlotOrdering(t *testing.T) {
	for _, n := range []int{1, 2, 7, 32, 33, 500} {
		c := newCalendar(3 * n)
		r := rand.New(rand.NewSource(int64(n)))
		var want []int
		for _, id := range r.Perm(n) {
			c.Add(10, 13, 3*id)
			want = append(want, 3*id)
			if id%3 == 0 {
				c.Add(11, 13, 3*id) // filed twice
			}
		}
		slices.Sort(want)
		if got := c.Next(10); got != 13 {
			t.Fatalf("n=%d: Next = %d, want 13", n, got)
		}
		wantDue(t, c, 11)
		wantDue(t, c, 12)
		wantDue(t, c, 13, want...)
		if got := c.Next(13); got != None {
			t.Fatalf("n=%d: Next after drain = %d", n, got)
		}
	}
}

// A slot is reused every Span cycles: entries filed for cycle c and for
// c+Span (after c was drained) must not mix, across many revolutions.
func TestWrapAround(t *testing.T) {
	c := newCalendar(2000)
	filed := map[uint64][]int{}
	add := func(now, at uint64, id int) {
		c.Add(now, at, id)
		filed[at] = append(filed[at], id)
	}
	for now := uint64(1); now < 10*Span; now++ {
		wantDue(t, c, now, filed[now]...)
		delete(filed, now)
		// One id a revolution minus one ahead (the slot just before the
		// one being walked) and, every seventh cycle, one a few ahead.
		add(now, now+Span-1, int(now))
		if now%7 == 0 {
			add(now, now+3, int(now+1000))
		}
		next := uint64(None)
		for at := range filed {
			next = min(next, at)
		}
		if got := c.Next(now); got != next {
			t.Fatalf("Next(%d) = %d, want %d", now, got, next)
		}
	}
}

// An entry exactly Span cycles out would land in the slot being drained:
// it waits in the overflow heap and still comes due at its cycle.
func TestExactlySpanOut(t *testing.T) {
	c := newCalendar(3)
	c.Add(100, 100+Span-1, 1)
	c.Add(100, 100+Span, 2)
	if c.occ == 0 || len(c.over) != 1 {
		t.Fatalf("Span-1 out belongs in the wheel, Span out in the heap: occ %#x, heap %v", c.occ, c.over)
	}
	// Filed while cycle 100's own slot is walked: must not join it.
	wantDue(t, c, 100)
	if got := c.Next(100); got != 100+Span-1 {
		t.Fatalf("Next = %d", got)
	}
	for now := uint64(101); now < 100+Span-1; now++ {
		wantDue(t, c, now)
	}
	wantDue(t, c, 100+Span-1, 1)
	wantDue(t, c, 100+Span, 2)
}

// Overflow entries migrate into the wheel as the clock reaches them,
// merge in order with entries filed directly, and cost nothing while
// they wait: the wheel stays empty, so a tick is one heap peek.
func TestOverflowMigrates(t *testing.T) {
	c := newCalendar(10)
	const far = 1 << 40
	c.Add(0, far, 9)
	c.Add(0, 1000, 7)
	c.Add(0, 1000, 3)
	c.Add(0, 200, 5)
	if got := c.Next(0); got != 200 {
		t.Fatalf("Next = %d, want 200", got)
	}
	for now := uint64(1); now < 200-Span; now++ {
		wantDue(t, c, now)
		if c.occ != 0 || len(c.over) != 4 {
			t.Fatalf("cycle %d: waiting entries moved: occ %#x, heap %d", now, c.occ, len(c.over))
		}
	}
	for now := uint64(200 - Span); now < 200; now++ {
		wantDue(t, c, now)
	}
	wantDue(t, c, 200, 5)
	// Jump (no Due calls in between, as after Torus.Advance), then file
	// directly into the slot the heap's entries are headed for.
	c.Add(990, 1000, 4)
	if got := c.Next(990); got != 1000 {
		t.Fatalf("Next after jump = %d, want 1000", got)
	}
	wantDue(t, c, 1000, 3, 4, 7)
	if got := c.Next(1000); got != far {
		t.Fatalf("Next = %d, want %d", got, uint64(far))
	}
}

// Next after a long idle jump: the bitmap is rotated by the caller's
// clock, so entries are found at their true distance from any now.
func TestNextAfterIdleJump(t *testing.T) {
	c := newCalendar(3)
	c.Add(5, 5+40, 1)
	for _, now := range []uint64{5, 6, 44, 45} {
		if got := c.Next(now); got != 45 {
			t.Fatalf("Next(%d) = %d, want 45", now, got)
		}
	}
	wantDue(t, c, 45, 1)
	// Idle for many revolutions, then file near the slot boundary.
	now := uint64(45 + 1000*Span + 62)
	c.Add(now, now+3, 2)
	if got := c.Next(now); got != now+3 {
		t.Fatalf("Next(%d) = %d, want %d", now, got, now+3)
	}
	wantDue(t, c, now+3, 2)
}

// Against a sorted list: random filings at random distances, random
// removals of entries filed fewer than Span cycles ahead, and random
// idle jumps that never pass a filed cycle.
func TestAgainstSortedList(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	c := newCalendar(50)
	type ev struct {
		at  uint64
		id  int
		far bool // filed Span or more cycles ahead: not removable
	}
	var model []ev
	removed := 0
	now := uint64(0)
	for step := 0; step < 20000; step++ {
		for k := r.Intn(4); k > 0; k-- {
			d := uint64(1 + r.Intn(10))
			if r.Intn(8) == 0 {
				d = uint64(1 + r.Intn(400))
			}
			id := r.Intn(50)
			c.Add(now, now+d, id)
			i := slices.IndexFunc(model, func(e ev) bool { return e.at == now+d && e.id == id })
			if i < 0 {
				model = append(model, ev{now + d, id, d >= Span})
			}
		}
		if len(model) > 0 && r.Intn(3) == 0 {
			if i := r.Intn(len(model)); !model[i].far {
				c.Remove(model[i].at, model[i].id)
				model = slices.Delete(model, i, i+1)
				removed++
			}
		}
		next := uint64(None)
		for _, e := range model {
			next = min(next, e.at)
		}
		if got := c.Next(now); got != next {
			t.Fatalf("step %d: Next(%d) = %d, want %d", step, now, got, next)
		}
		now++
		if next != None && next > now && r.Intn(3) == 0 {
			now += uint64(r.Int63n(int64(next - now + 1)))
		}
		var want []int
		model = slices.DeleteFunc(model, func(e ev) bool {
			if e.at == now {
				want = append(want, e.id)
			}
			return e.at == now
		})
		slices.Sort(want)
		wantDue(t, c, now, want...)
	}
	if removed < 1000 {
		t.Fatalf("only %d removals exercised", removed)
	}
}

// A filed cycle the caller's clock passed without Due is a missed
// visit: Due refuses to go on, whether the entry waits in the wheel or
// in the overflow heap.
func TestInvariantCalendarPastEntry(t *testing.T) {
	wantPanic := func(name string, c *Calendar, now uint64) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: Due(%d) past a filed cycle did not panic", name, now)
			}
			if msg, ok := r.(string); !ok || !strings.Contains(msg, "passed without Due") {
				t.Fatalf("%s: unexpected panic value: %v", name, r)
			}
		}()
		c.Due(now)
	}
	c := newCalendar(4)
	c.Add(0, 5, 2)
	c.Add(0, 5, 1)
	// Exactly-due entries come back in ascending id.
	wantDue(t, c, 5, 1, 2)
	c.Add(5, 7, 3)
	wantPanic("wheel", c, 8)

	c = newCalendar(4)
	c.Add(0, 3, 1)
	c.Add(0, 40, 2) // the nearer slot is legitimate; 3 is still missed
	wantPanic("wheel behind a nearer entry", c, 20)

	c = newCalendar(4)
	c.Add(0, 3, 1)
	c.Add(10, 3+Span, 2) // the passed cycle's slot, a revolution on
	wantPanic("slot refiled", c, 20)

	c = newCalendar(4)
	c.Add(0, 2*Span, 3)
	wantPanic("heap", c, 2*Span+1)
}

func TestSteadyStateAllocFree(t *testing.T) {
	c := newCalendar(9)
	now := uint64(0)
	round := func() {
		for i := 0; i < 200; i++ {
			c.Add(now, now+uint64(1+i%5), i%9)
			c.Add(now, now+100, i%3)
			now++
			c.Due(now)
		}
	}
	round()
	if n := testing.AllocsPerRun(20, round); n != 0 {
		t.Errorf("steady state allocates %v per round, want 0", n)
	}
}

func BenchmarkAddDue(b *testing.B) {
	c := newCalendar(61)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now := uint64(i)
		c.Add(now, now+4, i%61)
		c.Add(now, now+4, (i+30)%61)
		c.Due(now + 1)
	}
}
