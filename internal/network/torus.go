package network

import (
	"fmt"

	"april/internal/calendar"
	"april/internal/fault"
	"april/internal/trace"
)

// Torus is the packet-level k-ary n-cube. Each node has 2n output
// channels (one per dimension and direction). Packets follow
// dimension-order routes, advancing store-and-forward: a channel
// transmits one packet at a time at one flit per cycle, and packets
// queue FIFO at busy channels — queueing is where contention latency
// comes from, as in the open network model of Section 8.
//
// The router is event-driven on the host. A channel with a head packet
// is filed in a calendar at the cycle that packet finishes crossing it,
// so Tick visits exactly the channels that complete this cycle,
// NextEvent is a bit-scan and Advance moves the clock. The start rule
// is the per-cycle scan's: a packet that becomes a channel's head at
// tick T (queued on an idle channel, or uncovered by a completion)
// starts at T+1 and completes at T+Size+penalty. The calendar hands a
// cycle's channels back in ascending id, the order the scan completes
// them in, which keeps queue and inbox append order — and hence
// simulated behavior — bit-identical to it.
type Torus struct {
	geo      Geometry
	channels []channel
	in       inboxes
	now      uint64
	stats    Stats
	trace    *trace.Tracer

	// Host bookkeeping, rebuilt by RestoreImage: cal holds every channel
	// with a head packet exactly once, at its doneAt (or, under a fault
	// plan, at its startAt until the penalty is drawn); onLinks counts
	// packets sent and not yet delivered to an inbox.
	cal     calendar.Calendar
	onLinks int

	moved     []*Message // Tick scratch, reused across cycles
	movedFrom []int
	pool      msgPool
	curBuf    []int // routeInto coordinate scratch, length Dim
	dstBuf    []int

	// Fault injection. Transmission penalties are drawn per channel
	// from (plan, channel id, txSeq[channel]); the counter advances
	// once per transmission, at its start tick. The draw is not a pure
	// function of those: fault.Plan.Stalled reads state that arming a
	// wedge changes between ticks, so with a plan installed a head packet
	// is filed at its start tick, drawn there, and filed again at its
	// completion. Plan-free channels file the completion directly.
	plan  *fault.Plan
	txSeq []uint64
}

// SetFaultPlan implements Network.
func (t *Torus) SetFaultPlan(p *fault.Plan) {
	t.plan = p
	if p != nil && t.txSeq == nil {
		t.txSeq = make([]uint64, len(t.channels))
	}
}

// LiveMessages implements Network.
func (t *Torus) LiveMessages() int { return t.pool.liveCount() }

// channel is one output link: a FIFO of queued packets plus the
// timestamps of the head packet's transmission. The queue pops from a
// head index with amortized-O(1) compaction so the steady state neither
// reallocates (as append after a `queue[1:]` reslice eventually would)
// nor copies more than it pops.
type channel struct {
	queue []*Message // live entries are queue[head:]
	head  int

	// startAt is the tick at which the head packet starts transmitting
	// (0: no head packet, nothing filed); doneAt the tick at which it
	// completes (0: not drawn yet — a plan is installed and startAt has
	// not come).
	startAt, doneAt uint64
}

func (c *channel) qlen() int       { return len(c.queue) - c.head }
func (c *channel) qhead() *Message { return c.queue[c.head] }

func (c *channel) push(m *Message) { c.queue = append(c.queue, m) }

func (c *channel) pop() *Message {
	m := c.queue[c.head]
	c.queue[c.head] = nil
	c.head++
	switch {
	case c.head == len(c.queue):
		c.queue = c.queue[:0]
		c.head = 0
	case c.head > len(c.queue)/2:
		k := copy(c.queue, c.queue[c.head:])
		for i := k; i < len(c.queue); i++ {
			c.queue[i] = nil
		}
		c.queue = c.queue[:k]
		c.head = 0
	}
	return m
}

// busy is the image's countdown: cycles left transmitting the head
// packet, 0 before its start tick.
func (c *channel) busy(now uint64) int {
	if c.doneAt == 0 || now < c.startAt {
		return 0
	}
	return int(c.doneAt - now)
}

// file schedules the packet that became channel id's head during tick
// t.now: it starts next tick.
func (t *Torus) file(id int, c *channel) {
	c.startAt = t.now + 1
	if t.plan != nil {
		c.doneAt = 0
		t.cal.Add(t.now, c.startAt, id)
		return
	}
	c.doneAt = t.now + uint64(c.qhead().Size)
	t.cal.Add(t.now, c.doneAt, id)
}

// channel ids: node*2n + dim*2 + dir (dir 0 = +, 1 = -).
func (t *Torus) channelID(node, dim, dir int) int {
	return node*2*t.geo.Dim + dim*2 + dir
}

// NewTorus builds the packet-level network.
func NewTorus(g Geometry) (*Torus, error) {
	if err := g.validate(); err != nil {
		return nil, err
	}
	n := g.Nodes()
	t := &Torus{
		geo:      g,
		channels: make([]channel, n*2*g.Dim),
		in:       newInboxes(n),
		curBuf:   make([]int, g.Dim),
		dstBuf:   make([]int, g.Dim),
	}
	t.cal.Init(len(t.channels))
	return t, nil
}

// Geometry returns the torus shape.
func (t *Torus) Geometry() Geometry { return t.geo }

// deliver places a message in its destination inbox.
func (t *Torus) deliver(m *Message) {
	t.onLinks--
	t.in.put(m)
	t.account(m)
}

// route computes the dimension-order channel sequence from src to dst
// (test helper; the Send path uses routeInto with the message's own
// hop buffer).
func (t *Torus) route(src, dst int) []int {
	return t.routeInto(nil, src, dst)
}

// routeInto appends the dimension-order channel sequence from src to
// dst onto hops, using the torus's coordinate scratch buffers so the
// hot path allocates nothing once the message's route capacity has
// grown to its working size.
func (t *Torus) routeInto(hops []int, src, dst int) []int {
	cur, dstC := t.curBuf, t.dstBuf
	t.geo.CoordsInto(cur, src)
	t.geo.CoordsInto(dstC, dst)
	k := t.geo.Radix
	node := src
	for dim := 0; dim < t.geo.Dim; dim++ {
		for cur[dim] != dstC[dim] {
			fwd := dstC[dim] - cur[dim]
			if fwd < 0 {
				fwd += k
			}
			dir := 0
			step := 1
			if fwd > k-fwd {
				dir, step = 1, k-1 // go the short way around, negative
			}
			hops = append(hops, t.channelID(node, dim, dir))
			cur[dim] = (cur[dim] + step) % k
			node = t.geo.Node(cur)
		}
	}
	return hops
}

// Alloc implements Network.
func (t *Torus) Alloc() *Message { return t.pool.alloc() }

// Recycle implements Network.
func (t *Torus) Recycle(ms []*Message) { t.pool.recycle(ms) }

// Send implements Network.
func (t *Torus) Send(m *Message) {
	if m.recycled {
		panic("network: Send of a recycled message")
	}
	if m.Size < 1 {
		m.Size = 1
	}
	m.sentAt = t.now
	t.onLinks++
	t.stats.Messages++
	t.stats.FlitsSent += uint64(m.Size)
	t.trace.Emit(m.Src, trace.KNetInject, int32(m.Dst), int32(m.Size), 0, 0)
	if m.Src == m.Dst {
		// Loopback: delivered next tick without using the network.
		m.route = m.route[:0]
		m.hop = 0
		t.deliver(m)
		return
	}
	m.route = t.routeInto(m.route[:0], m.Src, m.Dst)
	first := m.route[0]
	m.hop = 1
	t.enqueue(first, m)
}

// enqueue appends m to channel id's queue; on an idle channel it is the
// new head.
func (t *Torus) enqueue(id int, m *Message) {
	c := &t.channels[id]
	c.push(m)
	if c.startAt == 0 {
		t.file(id, c)
	}
}

// Tick implements Network: the channels filed at this cycle complete
// their head packets, in ascending channel id; completed packets hop to
// the next channel's queue or are delivered. Moves apply after all
// channels have been processed so that a hop always costs exactly Size
// cycles regardless of channel numbering.
func (t *Torus) Tick() {
	t.now++
	moved := t.moved[:0]
	movedFrom := t.movedFrom[:0]
	// Phase 1: completions (and, under a plan, starts).
	for _, id := range t.cal.Due(t.now) {
		c := &t.channels[id]
		if c.doneAt == 0 {
			// The start tick under a plan: draw the penalty now. A
			// one-flit packet with no penalty completes in this same tick.
			c.doneAt = t.now - 1 + uint64(c.qhead().Size+t.plan.TxPenalty(id, t.txSeq[id]))
			t.txSeq[id]++
			if c.doneAt > t.now {
				t.cal.Add(t.now, c.doneAt, id)
				continue
			}
		}
		moved = append(moved, c.pop())
		movedFrom = append(movedFrom, id)
		if c.qlen() > 0 {
			t.file(id, c)
		} else {
			c.startAt, c.doneAt = 0, 0
		}
	}
	// Phase 2: apply the moves, in the same order.
	for i, m := range moved {
		t.stats.Hops++
		if m.hop >= len(m.route) {
			t.deliver(m)
		} else {
			// Intermediate hop: attributed to the node owning the
			// channel the packet just left.
			t.trace.Emit(movedFrom[i]/(2*t.geo.Dim), trace.KNetHop, int32(m.Dst), int32(m.Size), 0, 0)
			next := m.route[m.hop]
			m.hop++
			t.enqueue(next, m)
		}
	}
	t.moved = moved
	t.movedFrom = movedFrom
}

func (t *Torus) account(m *Message) {
	lat := t.now - m.sentAt
	if lat == 0 {
		lat = 1
	}
	t.stats.Delivered++
	t.stats.TotalLatency += lat
	if lat > t.stats.MaxLatency {
		t.stats.MaxLatency = lat
	}
	t.trace.Emit(m.Dst, trace.KNetDeliver, int32(m.Src), int32(m.Size), int32(lat), 0)
}

// Deliveries implements Network.
func (t *Torus) Deliveries(node int, buf []*Message) []*Message { return t.in.take(node, buf) }

// PendingNodes implements Network.
func (t *Torus) PendingNodes(buf []int) []int { return t.in.pending(buf) }

// Nodes implements Network.
func (t *Torus) Nodes() int { return t.geo.Nodes() }

// Stats implements Network.
func (t *Torus) Stats() Stats { return t.stats }

// InFlight counts undelivered packets, including undrained inboxes.
func (t *Torus) InFlight() int { return t.onLinks + t.in.held }

// SetTracer implements Network.
func (t *Torus) SetTracer(tr *trace.Tracer) { t.trace = tr }

// NextEvent implements Network: the earliest filed completion (under a
// plan, start), every Tick before which moves no packet and draws no
// penalty. Undrained inboxes count as immediate.
func (t *Torus) NextEvent() uint64 {
	if t.in.held > 0 {
		return t.now
	}
	return t.cal.Next(t.now)
}

// Advance implements Network: k no-op Ticks are k cycles on the clock,
// because nothing in the torus counts down.
func (t *Torus) Advance(k uint64) {
	if next := t.NextEvent(); t.now+k >= next {
		panic(fmt.Sprintf("network: Advance(%d) from %d crosses event at %d", k, t.now, next))
	}
	t.now += k
}

// Links appends the state of every non-idle channel (busy or queued)
// to buf for crash reports, in ascending channel-id order, marking
// channels the fault plan permanently stalls. Cold path: called only
// when building a fault.Report.
func (t *Torus) Links(buf []fault.LinkState) []fault.LinkState {
	for i := range t.channels {
		c := &t.channels[i]
		if c.qlen() == 0 {
			continue
		}
		buf = append(buf, fault.LinkState{
			Channel: i,
			Node:    i / (2 * t.geo.Dim),
			Dim:     (i / 2) % t.geo.Dim,
			Dir:     i % 2,
			Busy:    c.busy(t.now),
			Queued:  c.qlen(),
			Stalled: t.plan != nil && t.plan.Stalled(i),
		})
	}
	return buf
}

var _ Network = (*Torus)(nil)

// String describes the torus.
func (t *Torus) String() string {
	return fmt.Sprintf("%d-ary %d-cube (%d nodes)", t.geo.Radix, t.geo.Dim, t.geo.Nodes())
}
