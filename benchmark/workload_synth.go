package main

import (
	"fmt"

	"april/internal/cache"
	"april/internal/isa"
	"april/internal/rts"
	"april/internal/sim"
	"april/internal/workload"
)

// workload.Run keeps its machine to itself, so the traced run of
// synth64_stream rebuilds the same machine from the pieces the package
// exports and drives it in RunFor windows. The result must equal
// workload.Run's measurement bit for bit (the timed-versus-traced
// identity check), which also keeps this copy honest: if workload.Run
// changes, the check fails and this file is the one to follow up.

// synthStreamBytes is workload.Run's per-thread streaming region.
const synthStreamBytes = 32 << 10

func synthMachine(cfg workload.Config) (*sim.Machine, error) {
	return sim.New(sim.Config{
		Nodes:   cfg.Nodes,
		Profile: rts.APRIL,
		Alewife: &sim.AlewifeConfig{
			MemLatency: cfg.MemLatency,
			Cache:      cache.Config{SizeBytes: cfg.CacheBytes, BlockBytes: cfg.BlockBytes, Assoc: 4},
		},
	})
}

// runForWindows advances m by exactly `cycles` in spans of at most
// `window`.
func runForWindows(rec *recorder, m *sim.Machine, cycles, window uint64, perCycle *[]float64) error {
	return spanWindows(rec, m, perCycle, func() (bool, error) {
		n := min(cycles, window)
		cycles -= n
		return cycles == 0, m.RunFor(n)
	})
}

func synthTraced(rec *recorder, cfg workload.Config, window uint64) (workload.Measurement, map[string]uint64, []float64, error) {
	fail := func(err error) (workload.Measurement, map[string]uint64, []float64, error) {
		return workload.Measurement{}, nil, nil, err
	}
	id := rec.begin("setup/new")
	m, err := synthMachine(cfg)
	rec.end(id)
	if err != nil {
		return fail(err)
	}
	id = rec.begin("setup/load")
	m.LoadRaw(workload.BuildProgramForTest(cfg.ComputePerRef))
	regionBytes := uint32(cfg.WorkingSetBlocks) * cfg.BlockBytes
	mask := regionBytes - 1
	if regionBytes&mask != 0 {
		return fail(fmt.Errorf("working set of %d blocks is not a power-of-two region", cfg.WorkingSetBlocks))
	}
	seed := int32(12345)
	for node := 0; node < cfg.Nodes; node++ {
		for k := 0; k < cfg.ThreadsPerNode; k++ {
			base, _, err := m.Sched.HeapChunk(regionBytes)
			if err != nil {
				return fail(err)
			}
			base = (base + mask) &^ mask
			sbase, _, err := m.Sched.HeapChunk(2 * synthStreamBytes)
			if err != nil {
				return fail(err)
			}
			sbase = (sbase + synthStreamBytes - 1) &^ (synthStreamBytes - 1)
			m.SpawnRaw(node, 0, map[uint8]isa.Word{
				8:  isa.Word(seed),
				9:  isa.Word(base),
				10: isa.Word(mask &^ 3),
				14: isa.Word(sbase),
				15: isa.Word(uint32(synthStreamBytes-1) &^ 3),
			})
			seed = seed*1103515245 + 12345
		}
	}
	rec.end(id)

	var perCycle []float64
	if err := runForWindows(rec, m, cfg.WarmupCycles, window, &perCycle); err != nil {
		return fail(err)
	}
	s0, ms0 := m.TotalStats(), m.MemSystemStats()
	if err := runForWindows(rec, m, cfg.Cycles, window, &perCycle); err != nil {
		return fail(err)
	}
	s1, ms1 := m.TotalStats(), m.MemSystemStats()

	id = rec.begin("stats/package")
	defer rec.end(id)
	useful := float64(s1.UsefulCycles - s0.UsefulCycles)
	total := float64(cfg.Cycles) * float64(cfg.Nodes)
	misses := float64((ms1.LocalMisses + ms1.RemoteMisses) - (ms0.LocalMisses + ms0.RemoteMisses))
	refs := float64((s1.LoadCount + s1.StoreCount) - (s0.LoadCount + s0.StoreCount))
	remote := float64(ms1.RemoteMisses - ms0.RemoteMisses)
	remLat := float64(ms1.RemoteLatency - ms0.RemoteLatency)
	meas := workload.Measurement{ThreadsPerNode: cfg.ThreadsPerNode, Utilization: useful / total}
	if useful > 0 {
		meas.MissPerCycle = misses / useful
	}
	if refs > 0 {
		meas.MissRatio = misses / refs
	}
	if remote > 0 {
		meas.RemoteLatency = remLat / remote
	}
	return meas, layerCounts(m.CounterRegistry().Snapshot()), perCycle, nil
}
