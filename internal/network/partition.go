package network

import "fmt"

// Partition splits the node ids of a k-ary n-cube into contiguous
// blocks ("shards"). Node ids enumerate the cube with dimension 0
// varying fastest, so a contiguous id range is a contiguous slab of the
// torus: block boundaries cut along the highest dimension and every
// block's nodes are neighbors in the topology. Messages whose source
// and destination fall in different blocks are cross-shard traffic,
// which a conservative parallel run loop's lookahead window must cover.
//
// The simulator's run loop is sequential (DESIGN.md, "Why the run loop
// is sequential"), so no loop consumes a Partition; Machine.Partition
// exposes one for layout analysis.
type Partition struct {
	// bounds has one entry per shard plus a final sentinel: shard s owns
	// nodes [bounds[s], bounds[s+1]).
	bounds []int
}

// ComputePartition divides nodes 0..nodes-1 into at most shards
// contiguous, non-empty, balanced blocks (block sizes differ by at most
// one). shards is clamped to [1, nodes].
func ComputePartition(nodes, shards int) Partition {
	if nodes < 1 {
		nodes = 1
	}
	if shards < 1 {
		shards = 1
	}
	if shards > nodes {
		shards = nodes
	}
	bounds := make([]int, shards+1)
	for s := 0; s <= shards; s++ {
		bounds[s] = s * nodes / shards
	}
	return Partition{bounds: bounds}
}

// Shards is the number of blocks.
func (p Partition) Shards() int { return len(p.bounds) - 1 }

// Nodes is the total node count covered.
func (p Partition) Nodes() int { return p.bounds[len(p.bounds)-1] }

// Block returns shard s's node range [lo, hi).
func (p Partition) Block(s int) (lo, hi int) { return p.bounds[s], p.bounds[s+1] }

// Of returns the shard owning node (binary search over the bounds).
func (p Partition) Of(node int) int {
	lo, hi := 0, len(p.bounds)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if node >= p.bounds[mid] {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Cross reports whether a message from src to dst crosses a shard
// boundary.
func (p Partition) Cross(src, dst int) bool { return p.Of(src) != p.Of(dst) }

// Validate checks the structural invariants: blocks are non-empty,
// contiguous, and cover [0, Nodes) exactly once.
func (p Partition) Validate() error {
	if len(p.bounds) < 2 || p.bounds[0] != 0 {
		return fmt.Errorf("network: partition bounds %v do not start at 0", p.bounds)
	}
	for s := 0; s < p.Shards(); s++ {
		if p.bounds[s+1] <= p.bounds[s] {
			return fmt.Errorf("network: partition shard %d is empty or out of order (%v)", s, p.bounds)
		}
	}
	return nil
}

// String renders the block layout.
func (p Partition) String() string {
	return fmt.Sprintf("partition{%d nodes, %d shards, bounds %v}", p.Nodes(), p.Shards(), p.bounds)
}

// Lookahead is the conservative-PDES window of a network backend: the
// minimum number of cycles between a message being sent and the
// earliest cycle at which any other node can observe it. Within one
// window, nodes in different shards cannot affect each other through
// the interconnect, so a parallel run loop could execute them
// concurrently between horizon barriers.
//
// The ideal backend delivers every message exactly `latency` cycles
// after the send, so its lookahead is that latency. The torus forwards
// one flit per cycle per channel with delivery on the tick after the
// final hop completes; the smallest message (one flit, one hop — a
// boundary channel between adjacent nodes in different shards) is
// observable one tick after the send, so its lookahead is the one-hop
// transit of a minimum-size packet. Both are at least 1, which is the
// invariant the per-cycle horizon barrier relies on.
func Lookahead(n Network) uint64 {
	switch b := n.(type) {
	case *Ideal:
		return b.latency
	case *Torus:
		return 1
	default:
		return 1
	}
}

// PartitionLookahead is the per-shard refinement of Lookahead: the
// minimum number of cycles between shard s sending a message and the
// earliest cycle at which any node OUTSIDE the shard can observe it.
// Messages within the shard are invisible to other shards regardless of
// latency, so only cross-boundary traffic bounds the window; a shard
// whose nearest foreign node is far away can run ahead of the barrier
// for the whole transit time even when the global Lookahead is 1.
//
// The ideal backend delivers at a flat latency, so every shard's window
// is that latency. On the torus the bound is the shortest
// dimension-order route from any node in the block to any node outside
// it: contiguous id blocks are slabs of the cube, so for interior
// shards this is the one-hop distance across the slab face, but
// non-power-of-two shapes and uneven blocks can strand a shard farther
// from its nearest neighbor. The transit of a minimum-size packet is
// one cycle per hop with delivery on the following tick, so hops is a
// conservative lower bound and at least 1 (the global barrier floor).
//
// When the partition has a single shard there is no cross-boundary
// traffic at all; the window is bounded by the backend alone and the
// global Lookahead is returned.
func PartitionLookahead(n Network, p Partition, s int) uint64 {
	if p.Shards() <= 1 {
		return Lookahead(n)
	}
	t, ok := n.(*Torus)
	if !ok {
		return Lookahead(n)
	}
	geo := t.Geometry()
	lo, hi := p.Block(s)
	min := 0
	for src := lo; src < hi; src++ {
		for dst := 0; dst < p.Nodes(); dst++ {
			if dst >= lo && dst < hi {
				continue
			}
			if h := geo.Hops(src, dst); min == 0 || h < min {
				min = h
			}
		}
	}
	if min < 1 {
		min = 1
	}
	return uint64(min)
}

// MinPartitionLookahead folds PartitionLookahead over every shard: the
// largest horizon the whole machine can commit between barriers when
// every shard must stay inside its own window.
func MinPartitionLookahead(n Network, p Partition) uint64 {
	min := PartitionLookahead(n, p, 0)
	for s := 1; s < p.Shards(); s++ {
		if la := PartitionLookahead(n, p, s); la < min {
			min = la
		}
	}
	return min
}
