package network

import "math/bits"

// inboxes is both backends' delivery side: per-node inboxes, an id
// bitset of the non-empty ones, and a count of the messages they hold.
// PendingNodes is a bit-scan, so nodes come back ascending with no
// sorted list to keep. Only the messages are simulated state; the
// bitset and the count are rebuilt by restore.
type inboxes struct {
	box  [][]*Message
	full []uint64 // bit i set iff box[i] is non-empty
	held int      // messages across all inboxes
}

func newInboxes(nodes int) inboxes {
	return inboxes{box: make([][]*Message, nodes), full: make([]uint64, (nodes+63)/64)}
}

// put delivers m to its destination's inbox.
func (b *inboxes) put(m *Message) {
	b.box[m.Dst] = append(b.box[m.Dst], m)
	b.full[m.Dst>>6] |= 1 << (m.Dst & 63)
	b.held++
}

// take is Deliveries. The inbox keeps its capacity: its contents are
// copied into buf and the slice is truncated, so the steady state
// drains without allocating.
func (b *inboxes) take(node int, buf []*Message) []*Message {
	box := b.box[node]
	buf = append(buf, box...)
	clear(box)
	b.box[node] = box[:0]
	b.full[node>>6] &^= 1 << (node & 63)
	b.held -= len(box)
	return buf
}

// pending is PendingNodes: the non-empty inboxes' ids, ascending.
func (b *inboxes) pending(buf []int) []int {
	if b.held == 0 {
		return buf
	}
	for i, w := range b.full {
		for ; w != 0; w &= w - 1 {
			buf = append(buf, i<<6+bits.TrailingZeros64(w))
		}
	}
	return buf
}

// image is the inboxes' part of a network Image, per node, in delivery
// order.
func (b *inboxes) image() [][]MessageImage {
	out := make([][]MessageImage, len(b.box))
	for node, box := range b.box {
		out[node] = imagesOf(box)
	}
	return out
}

// restore refills the inboxes from a checked image (one list per node)
// with messages from p.
func (b *inboxes) restore(p *msgPool, img [][]MessageImage) {
	for node, box := range img {
		for _, mi := range box {
			b.box[node] = append(b.box[node], p.fromImage(mi))
		}
		if len(box) > 0 {
			b.full[node>>6] |= 1 << (node & 63)
			b.held += len(box)
		}
	}
}
