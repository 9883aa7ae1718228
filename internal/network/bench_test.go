package network

import (
	"math/rand"
	"testing"
)

// Microbenchmarks of the three torus calls a machine makes every cycle.
// BenchmarkTorusHop replays the drive behind benchmark/'s
// network.torus_hop_ns (layers_network.go), so the two can be compared:
// a 4x4x4 torus, 0.05 messages per node per cycle to uniform
// destinations, 4-flit packets, every delivery drained and recycled.

func benchDrain(net Network, pend *[]int, buf *[]*Message) {
	*pend = net.PendingNodes((*pend)[:0])
	for _, node := range *pend {
		*buf = net.Deliveries(node, (*buf)[:0])
		net.Recycle(*buf)
	}
}

func BenchmarkTorusHop(b *testing.B) {
	geo := Geometry{Dim: 3, Radix: 4}
	tor, err := NewTorus(geo)
	if err != nil {
		b.Fatal(err)
	}
	n := geo.Nodes()
	r := rand.New(rand.NewSource(1))
	type inject struct{ src, dst int }
	sched := make([][]inject, 2000)
	for c := range sched {
		for node := 0; node < n; node++ {
			if r.Float64() < 0.05 {
				sched[c] = append(sched[c], inject{node, r.Intn(n)})
			}
		}
	}
	var pend []int
	var buf []*Message
	b.ReportAllocs()
	b.ResetTimer()
	// One op is one completed channel hop.
	for start := tor.Stats().Hops; tor.Stats().Hops-start < uint64(b.N); {
		for _, cycle := range sched {
			for _, in := range cycle {
				m := tor.Alloc()
				m.Src, m.Dst, m.Size = in.src, in.dst, 4
				tor.Send(m)
			}
			tor.Tick()
			benchDrain(tor, &pend, &buf)
		}
	}
}

// halfInFlight sends one packet of the given size from every second
// node of a torus.
func halfInFlight(b *testing.B, geo Geometry, size int) *Torus {
	tor, err := NewTorus(geo)
	if err != nil {
		b.Fatal(err)
	}
	n := geo.Nodes()
	r := rand.New(rand.NewSource(1))
	for src := 0; src < n; src += 2 {
		m := tor.Alloc()
		m.Src, m.Dst, m.Size = src, (src+1+r.Intn(n-1))%n, size // never a loopback
		tor.Send(m)
	}
	return tor
}

var benchSink uint64

// NextEvent with packets in flight: asked once per machine cycle by the
// fast-forward logic.
func BenchmarkTorusNextEvent(b *testing.B) {
	tor := halfInFlight(b, Geometry{Dim: 3, Radix: 4}, 4)
	tor.Tick()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += tor.NextEvent()
	}
}

// Advance on a 1000-node torus with half the nodes transmitting, the
// packets long enough that no jump reaches a completion.
func BenchmarkTorusAdvance(b *testing.B) {
	tor := halfInFlight(b, Geometry{Dim: 3, Radix: 10}, 1<<40)
	tor.Tick()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tor.Advance(1)
	}
}
