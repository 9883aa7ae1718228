package network

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGeometryCoordsRoundTrip(t *testing.T) {
	g := Geometry{Dim: 3, Radix: 4}
	for node := 0; node < g.Nodes(); node++ {
		if got := g.Node(g.Coords(node)); got != node {
			t.Fatalf("node %d -> %v -> %d", node, g.Coords(node), got)
		}
	}
}

func TestHopsProperties(t *testing.T) {
	g := Geometry{Dim: 3, Radix: 5}
	f := func(a, b uint16) bool {
		src := int(a) % g.Nodes()
		dst := int(b) % g.Nodes()
		h := g.Hops(src, dst)
		// Symmetric, zero iff same node, bounded by n*floor(k/2).
		return h == g.Hops(dst, src) &&
			(h == 0) == (src == dst) &&
			h <= g.Dim*(g.Radix/2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAvgHopsMatchesPaper(t *testing.T) {
	// Section 8: "the average number of hops between a random pair of
	// nodes is nk/3 = 20" for n=3, k=20 (for odd radix this is nearly
	// exact; for k=20 the torus average is close).
	g := Geometry{Dim: 3, Radix: 20}
	rng := rand.New(rand.NewSource(1))
	var sum, cnt float64
	for i := 0; i < 20000; i++ {
		sum += float64(g.Hops(rng.Intn(g.Nodes()), rng.Intn(g.Nodes())))
		cnt++
	}
	avg := sum / cnt
	want := float64(g.Dim) * float64(g.Radix) / 4 // torus shortest-path average is nk/4
	if avg < want*0.95 || avg > want*1.05 {
		t.Errorf("measured avg hops %.2f, torus expectation %.1f", avg, want)
	}
}

func TestFitGeometry(t *testing.T) {
	cases := map[int]Geometry{
		1:    {Dim: 1, Radix: 1},
		2:    {Dim: 1, Radix: 2},
		8:    {Dim: 3, Radix: 2},
		27:   {Dim: 3, Radix: 3},
		64:   {Dim: 3, Radix: 4},
		1000: {Dim: 3, Radix: 10},
		5832: {Dim: 3, Radix: 18},
		16:   {Dim: 2, Radix: 4},
		4:    {Dim: 2, Radix: 2},
		100:  {Dim: 2, Radix: 10},
		// Neither a cube nor a square: a ring of every node.
		6:    {Dim: 1, Radix: 6},
		128:  {Dim: 1, Radix: 128},
		6000: {Dim: 1, Radix: 6000},
	}
	for nodes, want := range cases {
		if got := FitGeometry(nodes); got != want || got.Nodes() != nodes {
			t.Errorf("FitGeometry(%d) = %+v, want %+v", nodes, got, want)
		}
	}
	for _, c := range []struct{ nodes, dim, want int }{{1, 3, 1}, {7, 3, 1}, {8, 3, 2}, {6000, 3, 18}, {8000, 3, 20}, {99, 2, 9}} {
		if got := Root(c.nodes, c.dim); got != c.want {
			t.Errorf("Root(%d, %d) = %d, want %d", c.nodes, c.dim, got, c.want)
		}
	}
}

func TestRouteIsDimensionOrderAndReachesDst(t *testing.T) {
	tor, err := NewTorus(Geometry{Dim: 2, Radix: 4})
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b uint8) bool {
		src := int(a) % 16
		dst := int(b) % 16
		hops := tor.route(src, dst)
		return len(hops) == tor.geo.Hops(src, dst)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func deliverAll(t *testing.T, n Network, maxTicks int) map[int][]*Message {
	t.Helper()
	out := map[int][]*Message{}
	for i := 0; i < maxTicks; i++ {
		n.Tick()
		for node := 0; node < n.Nodes(); node++ {
			out[node] = n.Deliveries(node, out[node])
		}
	}
	return out
}

func TestTorusDelivery(t *testing.T) {
	tor, _ := NewTorus(Geometry{Dim: 2, Radix: 3})
	m := &Message{Src: 0, Dst: 8, Size: 4, Payload: RawPayload(0x4e110)}
	tor.Send(m)
	got := deliverAll(t, tor, 100)
	if len(got[8]) != 1 || got[8][0].Payload != RawPayload(0x4e110) {
		t.Fatalf("delivery failed: %+v", got)
	}
	// Unloaded latency = hops * size (store and forward).
	want := uint64(tor.geo.Hops(0, 8) * 4)
	if tor.Stats().TotalLatency != want {
		t.Errorf("latency %d, want %d", tor.Stats().TotalLatency, want)
	}
}

func TestTorusAllPairs(t *testing.T) {
	tor, _ := NewTorus(Geometry{Dim: 3, Radix: 3})
	n := tor.Nodes()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			tor.Send(&Message{Src: s, Dst: d, Size: 1, Payload: RawPayload(uint64(s)<<16 | uint64(d))})
		}
	}
	got := deliverAll(t, tor, 10000)
	total := 0
	for node, ms := range got {
		for _, m := range ms {
			if dst := int(m.Payload.Word & 0xffff); dst != node {
				t.Fatalf("message for %d delivered to %d", dst, node)
			}
			total++
		}
	}
	if total != n*n {
		t.Errorf("delivered %d of %d messages", total, n*n)
	}
	if tor.InFlight() != 0 {
		t.Errorf("%d packets stuck in flight", tor.InFlight())
	}
}

func TestContentionRaisesLatency(t *testing.T) {
	// Low load: latency near unloaded; high load: queueing pushes it
	// well above — the T(p) behavior the Section 8 model assumes.
	measure := func(msgsPerNodePerInterval int, interval int) float64 {
		tor, _ := NewTorus(Geometry{Dim: 2, Radix: 4})
		rng := rand.New(rand.NewSource(7))
		for step := 0; step < 300; step++ {
			if step%interval == 0 {
				for node := 0; node < tor.Nodes(); node++ {
					for j := 0; j < msgsPerNodePerInterval; j++ {
						dst := rng.Intn(tor.Nodes())
						tor.Send(&Message{Src: node, Dst: dst, Size: 4})
					}
				}
			}
			tor.Tick()
		}
		// Drain.
		for i := 0; i < 20000 && tor.InFlight() > 0; i++ {
			tor.Tick()
		}
		return tor.Stats().AvgLatency()
	}
	low := measure(1, 100)
	high := measure(1, 3)
	if high <= low*1.3 {
		t.Errorf("contention effect too weak: low-load %.1f, high-load %.1f", low, high)
	}
}

func TestIdealNetwork(t *testing.T) {
	n := NewIdeal(4, 10)
	n.Send(&Message{Src: 0, Dst: 3, Size: 4, Payload: RawPayload(42)})
	for i := 0; i < 9; i++ {
		n.Tick()
		if got := n.Deliveries(3, nil); len(got) != 0 {
			t.Fatalf("delivered after %d ticks, want 10", i+1)
		}
	}
	n.Tick()
	got := n.Deliveries(3, nil)
	if len(got) != 1 || got[0].Payload != RawPayload(42) {
		t.Fatalf("ideal delivery failed: %v", got)
	}
	if n.Stats().AvgLatency() != 10 {
		t.Errorf("avg latency %v, want 10", n.Stats().AvgLatency())
	}
}

func TestLoopback(t *testing.T) {
	tor, _ := NewTorus(Geometry{Dim: 1, Radix: 4})
	tor.Send(&Message{Src: 2, Dst: 2, Size: 4, Payload: RawPayload(7)})
	got := deliverAll(t, tor, 5)
	if len(got[2]) != 1 {
		t.Fatal("loopback not delivered")
	}
}
