package main

import (
	"time"

	"april/internal/network"
)

const (
	netDriveCycles = 2000 // cycles of injection schedule replayed per round
	netDriveLoad   = 0.05 // messages per node per cycle, uniform destinations
	netDriveFlits  = 4    // Table 4 packet size
)

// drain recycles everything the network delivered this cycle.
func drain(net network.Network, pend *[]int, buf *[]*network.Message) {
	*pend = net.PendingNodes((*pend)[:0])
	for _, node := range *pend {
		*buf = net.Deliveries(node, (*buf)[:0])
		net.Recycle(*buf)
	}
}

var networkDrives = []drive{
	// Host time per completed channel hop on a 4x4x4 torus under light
	// uniform traffic; the injection schedule is drawn from the seed
	// ahead of the clock. Ticks, sends and deliveries are all in the
	// figure, as they are in a machine run.
	{metric: "network.torus_hop_ns", fn: func(e *driveEnv) (float64, error) {
		geo := network.FitGeometry(e.sz.midNodes)
		tor, err := network.NewTorus(geo)
		if err != nil {
			return 0, err
		}
		n := geo.Nodes()
		r := newRand(e.seed)
		type inject struct{ src, dst int }
		sched := make([][]inject, netDriveCycles)
		for c := range sched {
			for node := 0; node < n; node++ {
				if r.Float64() < netDriveLoad {
					sched[c] = append(sched[c], inject{node, r.Intn(n)})
				}
			}
		}
		var pend []int
		var buf []*network.Message
		return e.perUnit(func() (uint64, time.Duration, error) {
			before := tor.Stats().Hops
			t0 := time.Now()
			for _, cycle := range sched {
				for _, in := range cycle {
					m := tor.Alloc()
					m.Src, m.Dst, m.Size = in.src, in.dst, netDriveFlits
					tor.Send(m)
				}
				tor.Tick()
				drain(tor, &pend, &buf)
			}
			return tor.Stats().Hops - before, time.Since(t0), nil
		})
	}},
	// One Tick of an empty 1000-node torus: the floor a sparse machine
	// pays per cycle it cannot skip.
	{metric: "network.torus_idle_tick_ns_n1000", fn: func(e *driveEnv) (float64, error) {
		tor, err := network.NewTorus(network.FitGeometry(e.sz.bigNodes))
		if err != nil {
			return 0, err
		}
		return e.perOp(func(n int) {
			for i := 0; i < n; i++ {
				tor.Tick()
			}
		}), nil
	}},
	// NextEvent with packets in flight: asked once per machine cycle by
	// the fast-forward logic.
	{metric: "network.torus_next_event_ns", fn: func(e *driveEnv) (float64, error) {
		geo := network.FitGeometry(e.sz.midNodes)
		tor, err := network.NewTorus(geo)
		if err != nil {
			return 0, err
		}
		r := newRand(e.seed)
		for i := 0; i < geo.Nodes()/2; i++ {
			m := tor.Alloc()
			m.Src, m.Dst, m.Size = r.Intn(geo.Nodes()), r.Intn(geo.Nodes()), netDriveFlits
			tor.Send(m)
		}
		tor.Tick()
		return e.perOp(func(n int) {
			for i := 0; i < n; i++ {
				sink += tor.NextEvent()
			}
		}), nil
	}},
	// One message through the constant-latency backend: send, the ticks
	// it is in flight for, delivery.
	{metric: "network.ideal_msg_ns", fn: func(e *driveEnv) (float64, error) {
		nodes := e.sz.midNodes
		net := network.NewIdeal(nodes, 10)
		var pend []int
		var buf []*network.Message
		return e.perOp(func(n int) {
			for i := 0; i < n; i++ {
				m := net.Alloc()
				m.Src, m.Dst, m.Size = i%nodes, (i*7+1)%nodes, netDriveFlits
				net.Send(m)
				net.Tick()
				drain(net, &pend, &buf)
			}
		}), nil
	}},
}
