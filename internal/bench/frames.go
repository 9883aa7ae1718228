package bench

import (
	"fmt"
	"strings"

	"april/internal/core"
	"april/internal/harness"
	"april/internal/mult"
	"april/internal/rts"
	"april/internal/sim"
)

// FramesSweep measures the central claim of the architecture on a real
// workload: processor utilization as a function of the number of
// hardware task frames (resident threads), running a future-parallel
// program on the full ALEWIFE memory system where remote misses force
// context switches. It is the empirical, end-to-end counterpart of the
// Figure 5 model curves (experiment E9 in EXPERIMENTS.md).
type FramesPoint struct {
	Frames      int
	Cycles      uint64
	Utilization float64 // useful cycles / total busy+idle cycles
	Switches    uint64
	MissTraps   uint64
}

// FramesSweepConfig drives the sweep.
type FramesSweepConfig struct {
	Nodes  int
	Frames []int
	FibN   int
	Lazy   bool

	// Workers bounds the host goroutines running sweep points in
	// parallel; <= 0 means one per available host core.
	Workers int
}

// DefaultFramesSweep runs fib on an 8-node machine at 1-8 frames.
func DefaultFramesSweep() FramesSweepConfig {
	return FramesSweepConfig{
		Nodes:  8,
		Frames: []int{1, 2, 3, 4, 6, 8},
		FibN:   15,
		Lazy:   false,
	}
}

// FramesSweep runs the sweep. Each point is an independent machine, so
// the points fan across host cores via the harness; the cross-check
// that every frame count computes the same result happens afterwards,
// in frame order.
func FramesSweep(cfg FramesSweepConfig) ([]FramesPoint, error) {
	src := FibSource(cfg.FibN)
	type pointOut struct {
		point  FramesPoint
		result string
	}
	outs, err := harness.Map(cfg.Workers, len(cfg.Frames), func(i int) (pointOut, error) {
		frames := cfg.Frames[i]
		prof := rts.APRIL
		prof.Frames = frames
		m, err := build(sim.Config{
			Nodes:   cfg.Nodes,
			Profile: prof,
			Lazy:    cfg.Lazy,
			Alewife: &sim.AlewifeConfig{},
		}, src, mult.Mode{HardwareFutures: true, LazyFutures: cfg.Lazy})
		if err != nil {
			return pointOut{}, err
		}
		res, err := m.Run()
		if err != nil {
			return pointOut{}, fmt.Errorf("frames=%d: %w", frames, err)
		}
		stats := m.TotalStats()
		var switches uint64
		for _, n := range m.Nodes {
			switches += n.Proc.Engine.Switches
		}
		return pointOut{
			point: FramesPoint{
				Frames:      frames,
				Cycles:      res.Cycles,
				Utilization: stats.Utilization(),
				Switches:    switches,
				MissTraps:   stats.Traps[core.TrapCacheMiss],
			},
			result: res.Formatted,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	var out []FramesPoint
	for _, o := range outs {
		if o.result != outs[0].result {
			return nil, fmt.Errorf("frames=%d: result %s != %s", o.point.Frames, o.result, outs[0].result)
		}
		out = append(out, o.point)
	}
	return out, nil
}

// FormatFramesSweep renders the sweep.
func FormatFramesSweep(points []FramesPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%7s  %12s  %12s  %10s  %10s\n",
		"frames", "cycles", "utilization", "switches", "miss-traps")
	for _, p := range points {
		fmt.Fprintf(&b, "%7d  %12d  %12.3f  %10d  %10d\n",
			p.Frames, p.Cycles, p.Utilization, p.Switches, p.MissTraps)
	}
	return b.String()
}
