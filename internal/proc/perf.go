package proc

import (
	"fmt"
	"time"
)

// Perf reports host-side simulation throughput for one run: how fast
// the simulator chewed through simulated cycles and instructions in
// wall-clock terms. It complements Stats (which describes the simulated
// machine and is bit-reproducible) with the observability needed to
// track the simulator's own speed across changes — these numbers vary
// run to run and host to host, and must never feed back into simulated
// results.
type Perf struct {
	SimCycles    uint64  `json:"sim_cycles"`
	Instructions uint64  `json:"instructions"`
	WallSeconds  float64 `json:"wall_seconds"`

	// CyclesPerSecond is simulated cycles per wall second; MIPS is
	// millions of simulated instructions per wall second.
	CyclesPerSecond float64 `json:"cycles_per_second"`
	MIPS            float64 `json:"mips"`
}

// NewPerf derives the throughput rates from a run's simulated cycle and
// instruction totals and its measured wall time. The rates degrade to 0
// (never NaN/Inf) when the wall time is zero.
func NewPerf(simCycles, instructions uint64, wall time.Duration) Perf {
	p := Perf{
		SimCycles:    simCycles,
		Instructions: instructions,
		WallSeconds:  wall.Seconds(),
	}
	if p.WallSeconds > 0 {
		p.CyclesPerSecond = float64(p.SimCycles) / p.WallSeconds
		p.MIPS = float64(p.Instructions) / p.WallSeconds / 1e6
	}
	return p
}

// String renders the throughput summary.
func (p Perf) String() string {
	return fmt.Sprintf("%d cycles, %d instructions in %.3fs (%.1f Mcycles/s, %.1f MIPS)",
		p.SimCycles, p.Instructions, p.WallSeconds, p.CyclesPerSecond/1e6, p.MIPS)
}
