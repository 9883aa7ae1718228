// Package network implements ALEWIFE's interconnect: a low-dimension
// direct network (k-ary n-cube) with packet-switched, dimension-order
// routing (Section 2.1). Two backends share one interface:
//
//   - Torus: a cycle-accurate packet-level model with per-channel FIFO
//     queues (store-and-forward, one flit per cycle per channel), used
//     for machine simulation and the latency-versus-load experiments.
//   - Ideal: constant-latency delivery, for configurations where only
//     the end-to-end delay matters.
package network

import (
	"fmt"

	"april/internal/calendar"
	"april/internal/fault"
	"april/internal/trace"
)

// Message is one network packet. Messages are pooled: obtain one with
// Alloc, fill Src/Dst/Size/Payload, and pass it to Send; the network
// owns it until Deliveries lends it to the consumer, who returns it
// with Recycle. Stack- or literal-constructed Messages also work (the
// pool adopts them at Recycle).
type Message struct {
	Src, Dst int
	Size     int // flits
	Payload  Payload

	sentAt   uint64
	arriveAt uint64 // ideal backend: delivery cycle (sentAt+latency+jitter)
	route    []int  // channel hops (channel ids); next hop is route[hop]
	hop      int
	recycled bool // on the freelist; guards double-recycle / stale Send
}

// Network moves messages between nodes, one Tick per machine cycle.
type Network interface {
	// Alloc returns a message from the network's freelist (or a fresh
	// one). Fields other than route capacity are unspecified; the
	// caller must set Src, Dst, Size, and Payload before Send.
	Alloc() *Message
	// Send injects a message (takes effect during subsequent Ticks).
	Send(m *Message)
	// Recycle returns delivered messages to the freelist. Callers must
	// not touch a message after recycling it; see msgPool for the
	// ownership rules.
	Recycle(ms []*Message)
	// Tick advances one cycle and returns the messages delivered this
	// cycle, grouped by destination via Deliveries.
	Tick()
	// Deliveries appends the messages that have arrived at node to buf
	// (caller-owned, reused across calls) and returns the result. The
	// messages remain pool-owned loans: copy what you need and Recycle
	// the batch.
	Deliveries(node int, buf []*Message) []*Message
	// PendingNodes appends the ids of nodes with undrained deliveries
	// to buf, in ascending node order, and returns the result. It lets
	// a caller drain exactly the inboxes that have work instead of
	// polling every node each cycle.
	PendingNodes(buf []int) []int
	// Nodes reports the node count.
	Nodes() int
	// Stats reports aggregate behavior.
	Stats() Stats
	// InFlight counts undelivered packets (including undrained
	// inboxes) — the occupancy gauge of the timeline sampler.
	InFlight() int
	// SetTracer attaches an event tracer (nil detaches). The network
	// emits inject/hop/deliver events; tracing never changes timing.
	SetTracer(t *trace.Tracer)
	// SetFaultPlan attaches a timing-perturbation plan (nil detaches;
	// the default). Call before any traffic is injected. With a plan
	// attached, transmissions and flights take extra, plan-drawn
	// cycles; without one, behavior is bit-identical to a plan-free
	// build.
	SetFaultPlan(p *fault.Plan)
	// LiveMessages counts pool-tracked messages currently checked out
	// (allocated and not yet recycled). At a tick boundary with all
	// inboxes drained it must equal InFlight; the fault checker
	// asserts this to catch leaked or double-owned messages.
	LiveMessages() int

	// NextEvent returns the earliest internal cycle (in the network's
	// own Tick count) at which a Tick could deliver a message or change
	// observable state, or NoEvent when the network is quiescent. Ticks
	// strictly before that cycle are guaranteed no-ops, which lets the
	// machine fast-forward across them with Advance.
	NextEvent() uint64
	// Advance replays k guaranteed-no-op Ticks in one step. The caller
	// must ensure now+k < NextEvent(); Advance panics on a violation it
	// can detect cheaply.
	Advance(k uint64)
}

// NoEvent is NextEvent's "quiescent" sentinel (the torus hands its
// calendar's answer straight through).
const NoEvent = calendar.None

// Stats aggregates network behavior.
type Stats struct {
	Messages     uint64 `counter:"messages"`
	FlitsSent    uint64 `counter:"flits_sent"`
	TotalLatency uint64 `counter:"total_latency"` // sum over delivered messages, cycles
	Delivered    uint64 `counter:"delivered"`
	MaxLatency   uint64 `counter:"max_latency"`
	Hops         uint64 `counter:"hops"` // completed channel transits (packet-level backends only)
}

// AvgLatency is the mean end-to-end latency of delivered messages.
func (s Stats) AvgLatency() float64 {
	if s.Delivered == 0 {
		return 0
	}
	return float64(s.TotalLatency) / float64(s.Delivered)
}

// Geometry describes a k-ary n-cube.
type Geometry struct {
	Dim   int // n
	Radix int // k
}

// Nodes is k^n.
func (g Geometry) Nodes() int {
	n := 1
	for i := 0; i < g.Dim; i++ {
		n *= g.Radix
	}
	return n
}

// Coords converts a node id to its n-dimensional coordinates.
func (g Geometry) Coords(node int) []int {
	c := make([]int, g.Dim)
	g.CoordsInto(c, node)
	return c
}

// CoordsInto fills c (length at least Dim) with node's coordinates,
// the allocation-free form of Coords.
func (g Geometry) CoordsInto(c []int, node int) {
	for i := 0; i < g.Dim; i++ {
		c[i] = node % g.Radix
		node /= g.Radix
	}
}

// Node converts coordinates back to a node id.
func (g Geometry) Node(c []int) int {
	id := 0
	for i := g.Dim - 1; i >= 0; i-- {
		id = id*g.Radix + c[i]
	}
	return id
}

// Hops is the dimension-order (torus, shortest-direction) hop count.
func (g Geometry) Hops(src, dst int) int {
	cs, cd := g.Coords(src), g.Coords(dst)
	h := 0
	for i := 0; i < g.Dim; i++ {
		d := cd[i] - cs[i]
		if d < 0 {
			d += g.Radix
		}
		if d > g.Radix-d {
			d = g.Radix - d
		}
		h += d
	}
	return h
}

// FitGeometry picks the geometry of exactly nodes nodes with the most
// dimensions, up to 3 like ALEWIFE, for machine configurations that
// specify only a node count: a cube, else a square, else a ring.
func FitGeometry(nodes int) Geometry {
	if nodes <= 1 {
		return Geometry{Dim: 1, Radix: 1}
	}
	for _, dim := range []int{3, 2} {
		if k := Root(nodes, dim); pow(k, dim) == nodes {
			return Geometry{Dim: dim, Radix: k}
		}
	}
	return Geometry{Dim: 1, Radix: nodes}
}

// Root returns the largest k with k^dim <= nodes (nodes >= 1).
func Root(nodes, dim int) int {
	k := 1
	for pow(k+1, dim) <= nodes {
		k++
	}
	return k
}

func pow(k, n int) int {
	out := 1
	for i := 0; i < n; i++ {
		out *= k
	}
	return out
}

// Ideal is the constant-latency backend. Because every message takes
// exactly `latency` cycles, the pending queue is FIFO by send time:
// the messages maturing on any Tick are a prefix, so delivery pops
// from a head index (no per-Tick scan) and NextEvent is the head's
// arrival time, O(1). head-slot compaction is amortized O(1) — the
// backing array shrinks whenever the dead prefix passes half.
type Ideal struct {
	nodes   int
	latency uint64
	now     uint64
	in      inboxes
	pending []*Message // ascending sentAt; live entries are pending[head:]
	head    int
	stats   Stats
	trace   *trace.Tracer
	pool    msgPool

	// Fault injection. A plan adds per-message flight jitter, which
	// breaks the FIFO-prefix property the head-index queue depends on;
	// jittered mode therefore delivers via a dense arriveAt scan (head
	// stays 0) into the same inbox set. Jitter must not reorder
	// messages between the same (src, dst) pair — the coherence
	// protocol relies on point-to-point ordering (e.g. a writeback
	// notification must not be overtaken by the same node's
	// re-request), and the torus preserves it structurally via FIFO
	// channels on deterministic routes — so arrival times are clamped
	// monotone per pair through lastArr.
	plan     *fault.Plan
	jittered bool
	sendSeq  uint64
	lastArr  []uint64 // per (src*nodes+dst) latest arrival time
}

// SetFaultPlan implements Network.
func (n *Ideal) SetFaultPlan(p *fault.Plan) {
	n.plan = p
	n.jittered = p != nil
	if p != nil && n.lastArr == nil {
		n.lastArr = make([]uint64, n.nodes*n.nodes)
	}
}

// LiveMessages implements Network.
func (n *Ideal) LiveMessages() int { return n.pool.liveCount() }

// NewIdeal creates an ideal network with the given one-way latency.
func NewIdeal(nodes int, latency int) *Ideal {
	if latency < 1 {
		latency = 1
	}
	return &Ideal{
		nodes:   nodes,
		latency: uint64(latency),
		in:      newInboxes(nodes),
	}
}

// Alloc implements Network.
func (n *Ideal) Alloc() *Message { return n.pool.alloc() }

// Recycle implements Network.
func (n *Ideal) Recycle(ms []*Message) { n.pool.recycle(ms) }

// Send implements Network.
func (n *Ideal) Send(m *Message) {
	if m.recycled {
		panic("network: Send of a recycled message")
	}
	m.sentAt = n.now
	m.arriveAt = n.now + n.latency
	if n.plan != nil {
		m.arriveAt += uint64(n.plan.MsgJitter(n.sendSeq))
		n.sendSeq++
		pair := m.Src*n.nodes + m.Dst
		if m.arriveAt < n.lastArr[pair] {
			m.arriveAt = n.lastArr[pair]
		}
		n.lastArr[pair] = m.arriveAt
	}
	n.pending = append(n.pending, m)
	n.stats.Messages++
	n.stats.FlitsSent += uint64(m.Size)
	n.trace.Emit(m.Src, trace.KNetInject, int32(m.Dst), int32(m.Size), 0, 0)
}

// Tick implements Network: deliver the matured prefix (or, in jittered
// mode, the matured subset — jitter makes arrival order diverge from
// send order, so maturity is no longer a prefix property).
func (n *Ideal) Tick() {
	n.now++
	if n.jittered {
		// Dense scan in send order (head stays 0 in this mode).
		rest := n.pending[:0]
		for _, m := range n.pending {
			if n.now >= m.arriveAt {
				n.in.put(m)
				n.account(m)
			} else {
				rest = append(rest, m)
			}
		}
		for i := len(rest); i < len(n.pending); i++ {
			n.pending[i] = nil
		}
		n.pending = rest
		return
	}
	for n.head < len(n.pending) && n.now >= n.pending[n.head].arriveAt {
		m := n.pending[n.head]
		n.pending[n.head] = nil
		n.head++
		n.in.put(m)
		n.account(m)
	}
	switch {
	case n.head == len(n.pending):
		n.pending = n.pending[:0]
		n.head = 0
	case n.head > len(n.pending)/2:
		k := copy(n.pending, n.pending[n.head:])
		for i := k; i < len(n.pending); i++ {
			n.pending[i] = nil
		}
		n.pending = n.pending[:k]
		n.head = 0
	}
}

func (n *Ideal) account(m *Message) {
	lat := n.now - m.sentAt
	n.stats.Delivered++
	n.stats.TotalLatency += lat
	if lat > n.stats.MaxLatency {
		n.stats.MaxLatency = lat
	}
	n.trace.Emit(m.Dst, trace.KNetDeliver, int32(m.Src), int32(m.Size), int32(lat), 0)
}

// Deliveries implements Network.
func (n *Ideal) Deliveries(node int, buf []*Message) []*Message { return n.in.take(node, buf) }

// PendingNodes implements Network.
func (n *Ideal) PendingNodes(buf []int) []int { return n.in.pending(buf) }

// NextEvent implements Network: the earliest delivery time among
// in-flight messages — the head of the FIFO pending queue — with
// undrained inboxes counting as immediate.
func (n *Ideal) NextEvent() uint64 {
	if n.in.held > 0 {
		return n.now
	}
	if n.jittered {
		next := uint64(NoEvent)
		for _, m := range n.pending {
			if m.arriveAt < next {
				next = m.arriveAt
			}
		}
		return next
	}
	if n.head < len(n.pending) {
		return n.pending[n.head].arriveAt
	}
	return NoEvent
}

// Advance implements Network: skip k no-op cycles.
func (n *Ideal) Advance(k uint64) {
	if next := n.NextEvent(); n.now+k >= next {
		panic(fmt.Sprintf("network: Advance(%d) from %d crosses event at %d", k, n.now, next))
	}
	n.now += k
}

// Nodes implements Network.
func (n *Ideal) Nodes() int { return n.nodes }

// Stats implements Network.
func (n *Ideal) Stats() Stats { return n.stats }

// InFlight implements Network.
func (n *Ideal) InFlight() int { return len(n.pending) - n.head + n.in.held }

// SetTracer implements Network.
func (n *Ideal) SetTracer(t *trace.Tracer) { n.trace = t }

var _ Network = (*Ideal)(nil)

// sanity-check helper used by tests.
func (g Geometry) validate() error {
	if g.Dim < 1 || g.Radix < 1 {
		return fmt.Errorf("network: bad geometry %+v", g)
	}
	return nil
}
