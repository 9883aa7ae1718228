package network

import "fmt"

// Snapshot support. Message timing (sentAt/arriveAt/route/hop) is
// unexported, so the dump/restore of in-flight traffic lives here. An
// Image is the backend-neutral simulated state of a network: restore
// reconstructs host-side bookkeeping (the channel calendar, the inbox
// bitset, pool freelists, head indices) from it — those are not part of
// the simulated state, only the live messages and counters are.

// MessageImage is one in-flight packet in snapshot form.
type MessageImage struct {
	Src, Dst, Size int
	Payload        Payload
	SentAt         uint64
	ArriveAt       uint64 // ideal backend only
	Route          []int  // torus backend only
	Hop            int
}

// Image is a network backend's complete simulated state.
type Image struct {
	Now   uint64
	Stats Stats

	// Ideal backend.
	SendSeq uint64
	LastArr []uint64       // jittered mode per-pair arrival clamp
	Pending []MessageImage // in-flight, ascending send order

	// Torus backend.
	TxSeq  []uint64         // per-channel transmission-draw counters
	Busy   []int            // per-channel transmission countdowns
	Queues [][]MessageImage // per-channel FIFO contents, head first

	// Both: undrained inboxes, per node, delivery order.
	Inbox [][]MessageImage
}

func imageOf(m *Message) MessageImage {
	img := MessageImage{
		Src: m.Src, Dst: m.Dst, Size: m.Size, Payload: m.Payload,
		SentAt: m.sentAt, ArriveAt: m.arriveAt, Hop: m.hop,
	}
	if len(m.route) > 0 {
		img.Route = append([]int(nil), m.route...)
	}
	return img
}

func (p *msgPool) fromImage(img MessageImage) *Message {
	m := p.alloc()
	m.Src, m.Dst, m.Size, m.Payload = img.Src, img.Dst, img.Size, img.Payload
	m.sentAt, m.arriveAt, m.hop = img.SentAt, img.ArriveAt, img.Hop
	m.route = append(m.route[:0], img.Route...)
	return m
}

// check refuses a packet no network of this shape could hold: restore
// runs on images that passed a checksum but may say anything.
func (img *MessageImage) check(nodes, channels int) error {
	if img.Src < 0 || img.Src >= nodes || img.Dst < 0 || img.Dst >= nodes || !img.Payload.Coh.Valid(nodes) {
		return fmt.Errorf("network: image packet %d->%d carrying %+v on %d nodes", img.Src, img.Dst, img.Payload.Coh, nodes)
	}
	if img.Size < 1 || img.Hop < 0 || img.Hop > len(img.Route) {
		return fmt.Errorf("network: image packet of %d flits at hop %d of %d", img.Size, img.Hop, len(img.Route))
	}
	for _, ch := range img.Route {
		if ch < 0 || ch >= channels {
			return fmt.Errorf("network: image packet routed over channel %d of %d", ch, channels)
		}
	}
	return nil
}

func checkImages(nodes, channels int, lists ...[]MessageImage) error {
	for _, ms := range lists {
		for i := range ms {
			if err := ms[i].check(nodes, channels); err != nil {
				return err
			}
		}
	}
	return nil
}

func imagesOf(ms []*Message) []MessageImage {
	if len(ms) == 0 {
		return nil
	}
	out := make([]MessageImage, len(ms))
	for i, m := range ms {
		out[i] = imageOf(m)
	}
	return out
}

// DumpImage captures the ideal network's simulated state.
func (n *Ideal) DumpImage() Image {
	img := Image{
		Now:     n.now,
		Stats:   n.stats,
		SendSeq: n.sendSeq,
		Pending: imagesOf(n.pending[n.head:]),
		Inbox:   n.in.image(),
	}
	if n.lastArr != nil {
		img.LastArr = append([]uint64(nil), n.lastArr...)
	}
	return img
}

// RestoreImage installs a previously dumped state. The network must be
// freshly constructed (with the same node count and latency) and have
// its fault plan already configured.
func (n *Ideal) RestoreImage(img Image) error {
	if len(img.Inbox) != n.nodes {
		return fmt.Errorf("network: image has %d inboxes, ideal network has %d nodes", len(img.Inbox), n.nodes)
	}
	if img.LastArr != nil && len(img.LastArr) != n.nodes*n.nodes {
		return fmt.Errorf("network: image lastArr length %d, want %d", len(img.LastArr), n.nodes*n.nodes)
	}
	if err := checkImages(n.nodes, 0, append(img.Inbox, img.Pending)...); err != nil {
		return err
	}
	n.now = img.Now
	n.stats = img.Stats
	n.sendSeq = img.SendSeq
	if img.LastArr != nil {
		if n.lastArr == nil {
			n.lastArr = make([]uint64, n.nodes*n.nodes)
		}
		copy(n.lastArr, img.LastArr)
	}
	n.pending = n.pending[:0]
	n.head = 0
	for _, mi := range img.Pending {
		n.pending = append(n.pending, n.pool.fromImage(mi))
	}
	n.in.restore(&n.pool, img.Inbox)
	return nil
}

// DumpImage captures the torus's simulated state.
func (t *Torus) DumpImage() Image {
	nch := len(t.channels)
	img := Image{
		Now:    t.now,
		Stats:  t.stats,
		Busy:   make([]int, nch),
		Queues: make([][]MessageImage, nch),
		Inbox:  t.in.image(),
	}
	if t.txSeq != nil {
		img.TxSeq = append([]uint64(nil), t.txSeq...)
	}
	for i := range t.channels {
		c := &t.channels[i]
		img.Busy[i] = c.busy(t.now)
		img.Queues[i] = imagesOf(c.queue[c.head:])
	}
	return img
}

// RestoreImage installs a previously dumped state. The torus must be
// freshly constructed with the same geometry and have its fault plan
// already configured.
func (t *Torus) RestoreImage(img Image) error {
	nch := len(t.channels)
	if len(img.Busy) != nch || len(img.Queues) != nch {
		return fmt.Errorf("network: image has %d channels, torus has %d", len(img.Busy), nch)
	}
	if len(img.Inbox) != t.geo.Nodes() {
		return fmt.Errorf("network: image has %d inboxes, torus has %d nodes", len(img.Inbox), t.geo.Nodes())
	}
	if img.TxSeq != nil && len(img.TxSeq) != nch {
		return fmt.Errorf("network: image txSeq length %d, want %d", len(img.TxSeq), nch)
	}
	if err := checkImages(t.geo.Nodes(), nch, append(img.Inbox, img.Queues...)...); err != nil {
		return err
	}
	for i, busy := range img.Busy {
		// A transmission in progress has a packet, started at some tick
		// >= 1, and ends at a cycle that exists.
		if busy < 0 || busy > 0 && (len(img.Queues[i]) == 0 || img.Now == 0 || img.Now+uint64(busy) < img.Now) {
			return fmt.Errorf("network: image channel %d busy for %d cycles with %d packets queued", i, busy, len(img.Queues[i]))
		}
	}
	t.now = img.Now
	t.stats = img.Stats
	if img.TxSeq != nil {
		if t.txSeq == nil {
			t.txSeq = make([]uint64, nch)
		}
		copy(t.txSeq, img.TxSeq)
	}
	for i := range t.channels {
		c := &t.channels[i]
		c.queue = c.queue[:0]
		c.head = 0
		for _, mi := range img.Queues[i] {
			c.queue = append(c.queue, t.pool.fromImage(mi))
		}
		t.onLinks += c.qlen()
		// The calendar is host bookkeeping: a transmission in progress is
		// filed at its completion, a head packet not yet started by the
		// rule Send and Tick use.
		switch busy := img.Busy[i]; {
		case busy > 0:
			c.startAt, c.doneAt = t.now, t.now+uint64(busy)
			t.cal.Add(t.now, c.doneAt, i)
		case c.qlen() > 0:
			t.file(i, c)
		}
	}
	t.in.restore(&t.pool, img.Inbox)
	return nil
}
