package network

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"april/internal/fault"
)

// denseTorus is the per-cycle torus the calendar-driven one replaced,
// kept as the oracle: every channel holds a busy countdown and every
// Tick visits every channel. It is the definition of the simulated
// behavior — start rule, completion order, penalty draw times — in the
// fewest lines that state it, and nothing but these tests runs it.
type denseTorus struct {
	rt     *Torus // routes only
	queue  [][]*Message
	busy   []int
	txSeq  []uint64
	inbox  [][]*Message
	now    uint64
	stats  Stats
	plan   *fault.Plan
	flight int
}

func newDenseTorus(g Geometry, plan *fault.Plan) *denseTorus {
	rt, err := NewTorus(g)
	if err != nil {
		panic(err)
	}
	nch := len(rt.channels)
	d := &denseTorus{rt: rt, queue: make([][]*Message, nch), busy: make([]int, nch), inbox: make([][]*Message, g.Nodes()), plan: plan}
	if plan != nil {
		d.txSeq = make([]uint64, nch)
	}
	return d
}

func (d *denseTorus) Send(src, dst, size int) {
	m := &Message{Src: src, Dst: dst, Size: size, sentAt: d.now}
	d.stats.Messages++
	d.stats.FlitsSent += uint64(size)
	d.flight++
	if src == dst {
		d.deliver(m)
		return
	}
	m.route, m.hop = d.rt.route(src, dst), 1
	d.queue[m.route[0]] = append(d.queue[m.route[0]], m)
}

func (d *denseTorus) deliver(m *Message) {
	d.inbox[m.Dst] = append(d.inbox[m.Dst], m)
	lat := max(d.now-m.sentAt, 1)
	d.stats.Delivered++
	d.stats.TotalLatency += lat
	d.stats.MaxLatency = max(d.stats.MaxLatency, lat)
}

// Tick returns whether any packet moved.
func (d *denseTorus) Tick() bool {
	d.now++
	var moved []*Message
	for i := range d.queue {
		if d.busy[i] == 0 && len(d.queue[i]) > 0 {
			d.busy[i] = d.queue[i][0].Size
			if d.plan != nil {
				d.busy[i] += d.plan.TxPenalty(i, d.txSeq[i])
				d.txSeq[i]++
			}
		}
		if d.busy[i] > 0 {
			if d.busy[i]--; d.busy[i] == 0 {
				moved = append(moved, d.queue[i][0])
				d.queue[i] = d.queue[i][1:]
			}
		}
	}
	for _, m := range moved {
		d.stats.Hops++
		if m.hop >= len(m.route) {
			d.deliver(m)
		} else {
			m.hop++
			d.queue[m.route[m.hop-1]] = append(d.queue[m.route[m.hop-1]], m)
		}
	}
	return len(moved) > 0
}

func (d *denseTorus) Deliveries(node int) []*Message {
	box := d.inbox[node]
	d.inbox[node] = nil
	d.flight -= len(box)
	return box
}

func (d *denseTorus) DumpImage() Image {
	img := Image{Now: d.now, Stats: d.stats, Busy: append([]int(nil), d.busy...),
		Queues: make([][]MessageImage, len(d.queue)), Inbox: make([][]MessageImage, len(d.inbox))}
	if d.txSeq != nil {
		img.TxSeq = append([]uint64(nil), d.txSeq...)
	}
	for i, q := range d.queue {
		img.Queues[i] = imagesOf(q)
	}
	for i, box := range d.inbox {
		img.Inbox[i] = imagesOf(box)
	}
	return img
}

// delivery is what a consumer can observe of one arrival.
type delivery struct {
	node, src, size int
	latency         uint64
}

// torusPair drives a Torus and the oracle with the same traffic and
// compares everything observable after every step.
type torusPair struct {
	t     *testing.T
	fast  *Torus
	dense *denseTorus
	buf   []*Message
}

func newTorusPair(t *testing.T, g Geometry, cfg *fault.Config) *torusPair {
	t.Helper()
	fast, err := NewTorus(g)
	if err != nil {
		t.Fatal(err)
	}
	var plan *fault.Plan
	if cfg != nil {
		plan = fault.NewPlan(*cfg) // shared: arming a wedge reaches both
		fast.SetFaultPlan(plan)
	}
	return &torusPair{t: t, fast: fast, dense: newDenseTorus(g, plan)}
}

func (p *torusPair) send(src, dst, size int) {
	m := p.fast.Alloc()
	m.Src, m.Dst, m.Size = src, dst, size
	p.fast.Send(m)
	p.dense.Send(src, dst, size)
}

// tick advances both one cycle. The calendar must have announced the
// cycle if anything moves in it.
func (p *torusPair) tick() {
	p.t.Helper()
	next := p.fast.NextEvent()
	p.fast.Tick()
	if p.dense.Tick() && next > p.dense.now {
		p.t.Fatalf("cycle %d: packets moved, but NextEvent had said %d", p.dense.now, next)
	}
	p.compare()
}

// drain hands out both sides' deliveries at the given nodes and
// compares them.
func (p *torusPair) drain(nodes []int) {
	p.t.Helper()
	var got, want []delivery
	for _, node := range nodes {
		p.buf = p.fast.Deliveries(node, p.buf[:0])
		for _, m := range p.buf {
			got = append(got, delivery{node, m.Src, m.Size, p.fast.now - m.sentAt})
		}
		p.fast.Recycle(p.buf)
		for _, m := range p.dense.Deliveries(node) {
			want = append(want, delivery{node, m.Src, m.Size, p.dense.now - m.sentAt})
		}
	}
	if !reflect.DeepEqual(got, want) {
		p.t.Fatalf("cycle %d: delivered %v, oracle %v", p.dense.now, got, want)
	}
}

func (p *torusPair) compare() {
	p.t.Helper()
	if got, want := p.fast.Stats(), p.dense.stats; got != want {
		p.t.Fatalf("cycle %d: stats %+v, oracle %+v", p.dense.now, got, want)
	}
	if got, want := p.fast.InFlight(), p.dense.flight; got != want {
		p.t.Fatalf("cycle %d: in flight %d, oracle %d", p.dense.now, got, want)
	}
	if got, want := p.fast.PendingNodes(nil), nonEmpty(p.dense.inbox); !slices.Equal(got, want) {
		p.t.Fatalf("cycle %d: pending nodes %v, oracle %v", p.dense.now, got, want)
	}
	got, want := p.fast.DumpImage(), p.dense.DumpImage()
	if sameImage(got, want) {
		return
	}
	for i := range want.Busy {
		seq := func(img Image) uint64 {
			if img.TxSeq == nil {
				return 0
			}
			return img.TxSeq[i]
		}
		if got.Busy[i] != want.Busy[i] || seq(got) != seq(want) || len(got.Queues[i]) != len(want.Queues[i]) {
			p.t.Fatalf("cycle %d channel %d: busy %d, txSeq %d, %d queued; oracle busy %d, txSeq %d, %d queued", p.dense.now, i,
				got.Busy[i], seq(got), len(got.Queues[i]), want.Busy[i], seq(want), len(want.Queues[i]))
		}
	}
	p.t.Fatalf("cycle %d: images differ outside the channels", p.dense.now)
}

// nonEmpty lists the nodes whose inbox holds a message, ascending: what
// PendingNodes must return.
func nonEmpty(inbox [][]*Message) []int {
	var ids []int
	for node, box := range inbox {
		if len(box) > 0 {
			ids = append(ids, node)
		}
	}
	return ids
}

// sameImage is reflect.DeepEqual on two torus images, without the
// reflection: it runs on every channel of both tori after every cycle.
func sameImage(a, b Image) bool {
	sameMsg := func(a, b MessageImage) bool {
		return a.Src == b.Src && a.Dst == b.Dst && a.Size == b.Size && a.Payload == b.Payload &&
			a.SentAt == b.SentAt && a.Hop == b.Hop && slices.Equal(a.Route, b.Route)
	}
	sameMsgs := func(a, b []MessageImage) bool { return slices.EqualFunc(a, b, sameMsg) }
	return a.Now == b.Now && a.Stats == b.Stats && slices.Equal(a.TxSeq, b.TxSeq) && slices.Equal(a.Busy, b.Busy) &&
		slices.EqualFunc(a.Queues, b.Queues, sameMsgs) && slices.EqualFunc(a.Inbox, b.Inbox, sameMsgs)
}

// jump crosses up to k no-op cycles with Advance on the fast side and
// Ticks on the oracle, which must move nothing.
func (p *torusPair) jump(k uint64) {
	p.t.Helper()
	next := p.fast.NextEvent()
	if next <= p.fast.now+1 {
		return
	}
	k = min(k, next-p.fast.now-1)
	p.fast.Advance(k)
	for ; k > 0; k-- {
		if p.dense.Tick() {
			p.t.Fatalf("cycle %d: packets moved inside an Advance bounded by NextEvent %d", p.dense.now, next)
		}
	}
	p.compare()
}

// TestTorusMatchesDenseOracle is the differential the run loops used to
// provide (the reference loop ran a dense torus): seeded random traffic
// on three cubes, plan-free, under hop jitter with transient stalls
// long enough to leave the calendar's wheel, and with dead links.
func TestTorusMatchesDenseOracle(t *testing.T) {
	geos := []Geometry{{Dim: 2, Radix: 3}, {Dim: 3, Radix: 4}, {Dim: 3, Radix: 10}}
	cycles := []int{6000, 1500, 300} // every cycle compares whole images
	plans := map[string]*fault.Config{
		"clean":   nil,
		"jitter":  {Seed: 7, MaxHopJitter: 3, StallEvery: 9, StallCycles: 150},
		"stalled": {Seed: 3, MaxHopJitter: 1, StallLinks: []int{0, 5, 13}},
	}
	for gi, g := range geos {
		for name, cfg := range plans {
			t.Run(fmt.Sprintf("%d-ary-%d/%s", g.Radix, g.Dim, name), func(t *testing.T) {
				t.Parallel()
				p := newTorusPair(t, g, cfg)
				n := g.Nodes()
				r := rand.New(rand.NewSource(int64(n)))
				all := make([]int, n)
				for i := range all {
					all[i] = i
				}
				for c := 0; c < cycles[gi]; c++ {
					// Bursts, then silence long enough for jumps.
					if c%200 < 120 {
						for k := r.Intn(2 + n/16); k > 0; k-- {
							p.send(r.Intn(n), r.Intn(n), 1+r.Intn(6))
						}
					}
					p.compare()
					if r.Intn(4) == 0 {
						p.drain(all) // loopbacks, before NextEvent is asked
						p.jump(uint64(1 + r.Intn(40)))
					}
					p.tick()
					if r.Intn(3) > 0 {
						p.drain(p.fast.PendingNodes(nil))
					}
				}
				p.drain(all)
				if p.fast.Stats().Delivered == 0 {
					t.Fatal("nothing was delivered")
				}
			})
		}
	}
}

// TestIdealMatchesPlainInboxes drives the ideal network, clean and
// jittered, with seeded random traffic on 100 nodes (two words of the
// inbox bitset) next to plain per-node lists: a sent message joins its
// destination's list at the arrival time Send gave it, in send order.
// After every cycle PendingNodes must name exactly the non-empty lists,
// ascending, InFlight must count every undrained message, NextEvent must
// not be later than the next arrival, and every drain must hand out the
// list's messages in order.
func TestIdealMatchesPlainInboxes(t *testing.T) {
	plans := map[string]*fault.Config{
		"clean":  nil,
		"jitter": {Seed: 5, MaxHopJitter: 4, StallEvery: 7, StallCycles: 90},
	}
	for name, cfg := range plans {
		t.Run(name, func(t *testing.T) {
			const nodes = 100
			n := NewIdeal(nodes, 3)
			if cfg != nil {
				n.SetFaultPlan(fault.NewPlan(*cfg))
			}
			var flying []*Message // sent, not arrived, in send order
			inbox := make([][]*Message, nodes)
			var buf []*Message
			r := rand.New(rand.NewSource(11))
			drain := func(node int) {
				buf = n.Deliveries(node, buf[:0])
				if !slices.Equal(buf, inbox[node]) {
					t.Fatalf("cycle %d node %d: delivered %d messages, plain list %d", n.now, node, len(buf), len(inbox[node]))
				}
				inbox[node] = nil
				n.Recycle(buf)
			}
			delivered, high := 0, 0
			for c := 0; c < 3000; c++ {
				if c%300 < 200 {
					for k := r.Intn(4); k > 0; k-- {
						m := n.Alloc()
						m.Src, m.Dst, m.Size = r.Intn(nodes), r.Intn(nodes), 1
						n.Send(m)
						flying = append(flying, m)
					}
				}
				next := uint64(NoEvent)
				for _, m := range flying {
					next = min(next, m.arriveAt)
				}
				if got := n.NextEvent(); got > next {
					t.Fatalf("cycle %d: NextEvent %d, a message arrives at %d", n.now, got, next)
				}
				n.Tick()
				rest := flying[:0]
				for _, m := range flying {
					if m.arriveAt <= n.now {
						inbox[m.Dst] = append(inbox[m.Dst], m)
						delivered++
						high += m.Dst / 64
					} else {
						rest = append(rest, m)
					}
				}
				flying = rest
				held := 0
				for _, box := range inbox {
					held += len(box)
				}
				if got, want := n.PendingNodes(nil), nonEmpty(inbox); !slices.Equal(got, want) {
					t.Fatalf("cycle %d: pending nodes %v, plain lists %v", n.now, got, want)
				}
				if got, want := n.InFlight(), len(flying)+held; got != want {
					t.Fatalf("cycle %d: in flight %d, plain lists %d", n.now, got, want)
				}
				switch r.Intn(3) {
				case 0:
					for _, node := range n.PendingNodes(nil) {
						drain(node)
					}
				case 1:
					drain(r.Intn(nodes))
				}
			}
			if delivered < 1000 || high == 0 {
				t.Fatalf("%d messages delivered, %d past the bitset's first word", delivered, high)
			}
		})
	}
}

// The start rule, cycle by cycle: a packet queued at tick T on an idle
// channel starts at T+1 (Busy 0 until then) and completes at T+Size;
// the packet behind it becomes head at that completion and starts the
// tick after.
func TestTorusStartRule(t *testing.T) {
	p := newTorusPair(t, Geometry{Dim: 1, Radix: 4}, nil)
	for i := 0; i < 3; i++ {
		p.tick()
	}
	p.send(0, 1, 3) // T = 3
	p.send(0, 1, 2)
	ch := p.fast.route(0, 1)[0]
	wantBusy := []int{0, 2, 1, 0, 1, 0} // at T, T+1, ...: first done at T+3, second at T+5
	for i, want := range wantBusy {
		if got := p.fast.DumpImage().Busy[ch]; got != want {
			t.Fatalf("T+%d: busy %d, want %d", i, got, want)
		}
		if i == 0 {
			if got := p.fast.NextEvent(); got != 6 {
				t.Fatalf("NextEvent at T = %d, want T+Size = 6", got)
			}
		}
		p.tick()
	}
	p.drain([]int{1})
	if s := p.fast.Stats(); s.Delivered != 2 || s.TotalLatency != 3+5 {
		t.Fatalf("delivered %d with total latency %d, want 2 and 8", s.Delivered, s.TotalLatency)
	}
}

// TxPenalty is not a pure function of (channel, seq): arming a wedge
// between ticks changes it. A packet queued at tick T on an idle channel
// of the wedge node draws at T+1, so a wedge armed between the two
// catches it — which a completion filed at queue time would miss.
func TestTorusWedgeArmedAfterQueueing(t *testing.T) {
	g := Geometry{Dim: 2, Radix: 3}
	p := newTorusPair(t, g, &fault.Config{Seed: 1, WedgeAtCycle: 5, WedgeNode: 4})
	for i := 0; i < 4; i++ {
		p.tick()
	}
	p.send(4, 5, 4) // queued at T = 4 on an idle channel of node 4
	ch := p.fast.route(4, 5)[0]
	if img := p.fast.DumpImage(); img.Busy[ch] != 0 || img.TxSeq[ch] != 0 {
		t.Fatalf("queued, not started: busy %d txSeq %d, want 0 and 0", img.Busy[ch], img.TxSeq[ch])
	}
	p.dense.plan.ArmWedge(p.fast.NodeChannels(4)) // Machine.armWedge at the cycle-5 boundary
	p.tick()
	img := p.fast.DumpImage()
	if want := 4 + fault.PermanentStall - 1; img.Busy[ch] != want || img.TxSeq[ch] != 1 {
		t.Fatalf("after the start tick: busy %d txSeq %d, want %d and 1", img.Busy[ch], img.TxSeq[ch], want)
	}
	for i := 0; i < 200; i++ {
		p.jump(1000)
		p.tick()
	}
	if p.fast.Stats().Delivered != 0 {
		t.Fatal("a packet crossed a wedged channel")
	}
}

// A permanently stalled channel and a stall longer than the wheel wait
// in the calendar's heap: NextEvent sees past them to nearer traffic,
// ticking past them allocates nothing, and the stalled one is still
// there — one cycle closer — whenever an image is taken.
func TestTorusLongStallsWait(t *testing.T) {
	g := Geometry{Dim: 1, Radix: 8}
	p := newTorusPair(t, g, &fault.Config{Seed: 1, StallLinks: []int{0}})
	dead := p.fast.route(0, 1)[0]
	if dead != 0 {
		t.Fatalf("route 0->1 starts on channel %d, want 0", dead)
	}
	p.send(0, 1, 4)
	p.tick()
	if got, want := p.fast.NextEvent(), uint64(4+fault.PermanentStall); got != want {
		t.Fatalf("NextEvent %d, want %d", got, want)
	}
	p.send(4, 5, 2)
	if got := p.fast.NextEvent(); got != 2 {
		t.Fatalf("NextEvent %d with a fresh packet queued under a plan, want its start tick 2", got)
	}
	for i := 0; i < 300; i++ {
		p.tick()
	}
	p.drain([]int{5})
	if n := testing.AllocsPerRun(50, func() {
		for i := 0; i < 100; i++ {
			p.fast.Tick()
			p.dense.Tick()
		}
	}); n != 0 {
		t.Errorf("ticking past a stalled channel allocates %v per 100 cycles, want 0", n)
	}
	p.compare()
	if got, want := p.fast.DumpImage().Busy[dead], 4+fault.PermanentStall-int(p.fast.now); got != want {
		t.Fatalf("stalled channel busy %d at cycle %d, want %d", got, p.fast.now, want)
	}
}

// An image restores into the same calendar the hot path would have
// built: in-progress transmissions at their completion, queued ones by
// the start rule, penalties beyond the wheel in the heap.
func TestTorusRestoreRebuildsCalendar(t *testing.T) {
	g := Geometry{Dim: 2, Radix: 4}
	for _, cfg := range []*fault.Config{nil, {Seed: 5, MaxHopJitter: 2, StallEvery: 4, StallCycles: 200}} {
		p := newTorusPair(t, g, cfg)
		r := rand.New(rand.NewSource(9))
		for c := 0; c < 300; c++ {
			for k := r.Intn(3); k > 0; k-- {
				p.send(r.Intn(16), r.Intn(16), 1+r.Intn(5))
			}
			p.tick()
			// Sent after the tick: queued, not started, in the image.
			p.send(r.Intn(16), r.Intn(16), 1+r.Intn(5))
			twin, err := NewTorus(g)
			if err != nil {
				t.Fatal(err)
			}
			twin.SetFaultPlan(p.fast.plan)
			if err := twin.RestoreImage(p.fast.DumpImage()); err != nil {
				t.Fatal(err)
			}
			if got, want := twin.NextEvent(), p.fast.NextEvent(); got != want {
				t.Fatalf("cycle %d: restored NextEvent %d, donor %d", c, got, want)
			}
			if twin.InFlight() != p.fast.InFlight() {
				t.Fatalf("cycle %d: restored InFlight %d, donor %d", c, twin.InFlight(), p.fast.InFlight())
			}
			if c%50 == 49 { // run the twin on against the oracle
				p.fast = twin
			}
			p.drain(p.fast.PendingNodes(nil))
		}
	}
}
