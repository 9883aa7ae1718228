// Package workload generates the synthetic multithreaded workloads
// used to validate the Section 8 analytical model (experiment E6):
// each thread alternates a fixed compute burst with one reference into
// a private working set whose blocks are distributed across the
// machine, exactly the structure the model assumes. Sweeping the
// number of resident threads p measures m(p), T(p), and U(p) on the
// full cache + directory + network simulator, revalidating the paper's
// claim that the cache and network terms are "the sum of two
// components: one component independent of the number of threads p and
// the other linearly related to p (to first order)."
package workload

import (
	"fmt"

	"april/internal/cache"
	"april/internal/harness"
	"april/internal/isa"
	"april/internal/rts"
	"april/internal/sim"
)

// Config shapes the synthetic threads.
type Config struct {
	Nodes            int
	ThreadsPerNode   int // p
	WorkingSetBlocks int // per thread (Table 4: 250)
	BlockBytes       uint32
	ComputePerRef    int // filler ALU ops between memory references
	CacheBytes       uint32
	MemLatency       int
	Cycles           uint64 // measurement window
	WarmupCycles     uint64

	// Workers bounds the host goroutines running sweep points in
	// parallel (each point is an independent machine); <= 0 means one
	// per available host core.
	Workers int
}

// DefaultConfig scales Table 4's shape down to a simulable machine: a
// 2-ary 3-cube with a cache small enough that p working sets interfere.
func DefaultConfig() Config {
	return Config{
		Nodes:            8,
		ThreadsPerNode:   2,
		WorkingSetBlocks: 32,
		BlockBytes:       16,
		ComputePerRef:    6,
		CacheBytes:       2 << 10,
		MemLatency:       10,
		Cycles:           300_000,
		WarmupCycles:     60_000,
	}
}

// buildProgram emits the per-thread loop. Most references hit the
// thread's private working set (interference among resident threads
// gives the p-dependent miss component); one in eight goes to a large
// streaming region that never caches, giving the fixed component the
// model attributes to first-time fetches and coherence traffic.
//
//	loop: state = state*1664525 + 1013904223          (LCG)
//	      if state & 7 == 0:  load stream[state' & smask]
//	      else:               load wset[state' & wmask]
//	      <ComputePerRef filler ops>
//	      goto loop
//
// Registers: r8 = LCG state (seeded per thread), r9/r10 = working-set
// base/mask, r14/r15 = stream base/mask, r11..r13 scratch.
func buildProgram(computePerRef int) *isa.Program {
	var code []isa.Inst
	emit := func(is ...isa.Inst) {
		code = append(code, is...)
	}
	label := func() int32 { return int32(len(code)) }
	br := func(op isa.Opcode) int {
		code = append(code, isa.Br(op, 0))
		return len(code) - 1
	}
	patch := func(at int, target int32) { code[at].Imm = target - int32(at) }

	emit(
		isa.RI(isa.OpMul, 8, 8, 1664525),
		isa.RI(isa.OpRawAdd, 8, 8, 1013904223),
		// Use the higher LCG bits for the offset (low bits are weak).
		isa.RI(isa.OpSrl, 13, 8, 8),
		isa.RI(isa.OpRawAnd, 11, 8, 7),
		// Tag the selector as a fixnum before the strict compare: an
		// odd raw value would trip the future-detection hardware.
		isa.RI(isa.OpSll, 11, 11, 2),
		isa.RI(isa.OpSubCC, isa.RZero, 11, 0),
	)
	toStream := br(isa.OpBe)
	emit(
		isa.R3(isa.OpRawAnd, 11, 13, 10),
		isa.R3(isa.OpRawAdd, 11, 11, 9),
	)
	toLoad := br(isa.OpBa)
	patch(toStream, label())
	emit(
		isa.R3(isa.OpRawAnd, 11, 13, 15),
		isa.R3(isa.OpRawAdd, 11, 11, 14),
	)
	patch(toLoad, label())
	emit(isa.Ld(isa.OpLdnt, 12, 11, 0))
	for i := 0; i < computePerRef; i++ {
		emit(isa.RI(isa.OpRawAdd, 13, 13, 1))
	}
	emit(isa.Br(isa.OpBa, int32(-(len(code))))) // back to 0
	return &isa.Program{Code: code}
}

// streamBytes is the per-thread streaming region (must dwarf the
// cache so stream references always miss).
const streamBytes = 32 << 10

// Measurement is one sweep point.
type Measurement struct {
	ThreadsPerNode int
	Utilization    float64 // useful cycles / total cycles
	MissPerCycle   float64 // cache misses per useful cycle: the model's m(p)
	RemoteLatency  float64 // average remote service time: the model's T(p)
	MissRatio      float64 // misses per reference
}

// Run measures one configuration.
func Run(cfg Config) (Measurement, error) {
	meas, _, err := run(cfg, sim.TierCompiled)
	return meas, err
}

// run is Run on the given execution tier, also returning the machine
// it measured. The tier changes host time, never a measurement.
func run(cfg Config, tier sim.Tier) (Measurement, *sim.Machine, error) {
	if cfg.ThreadsPerNode < 1 {
		return Measurement{}, nil, fmt.Errorf("workload: need at least one thread per node")
	}
	m, err := sim.New(sim.Config{
		Nodes:   cfg.Nodes,
		Profile: rts.APRIL,
		Tier:    tier,
		Alewife: &sim.AlewifeConfig{
			MemLatency: cfg.MemLatency,
			Cache: cache.Config{
				SizeBytes:  cfg.CacheBytes,
				BlockBytes: cfg.BlockBytes,
				Assoc:      4,
			},
		},
	})
	if err != nil {
		return Measurement{}, nil, err
	}
	prog := buildProgram(cfg.ComputePerRef)
	m.LoadRaw(prog)

	// One private region per thread; regions interleave across homes
	// at block granularity via the machine's distribution.
	regionBytes := uint32(cfg.WorkingSetBlocks) * cfg.BlockBytes
	mask := regionBytes - 1
	if regionBytes&mask != 0 {
		return Measurement{}, nil, fmt.Errorf("workload: working set (%d blocks) must give a power-of-two region", cfg.WorkingSetBlocks)
	}
	seed := int32(12345)
	for node := 0; node < cfg.Nodes; node++ {
		for k := 0; k < cfg.ThreadsPerNode; k++ {
			base, _, err := m.Sched.HeapChunk(regionBytes)
			if err != nil {
				return Measurement{}, nil, err
			}
			// Align the region so masking stays inside it.
			base = (base + mask) &^ mask
			sbase, _, err := m.Sched.HeapChunk(2 * streamBytes)
			if err != nil {
				return Measurement{}, nil, err
			}
			sbase = (sbase + streamBytes - 1) &^ (streamBytes - 1)
			m.SpawnRaw(node, 0, map[uint8]isa.Word{
				8:  isa.Word(seed),
				9:  isa.Word(base),
				10: isa.Word(mask &^ 3),
				14: isa.Word(sbase),
				15: isa.Word(uint32(streamBytes-1) &^ 3),
			})
			seed = seed*1103515245 + 12345
		}
	}

	if err := m.RunFor(cfg.WarmupCycles); err != nil {
		return Measurement{}, nil, err
	}
	// Snapshot, run the window, and diff.
	s0 := m.TotalStats()
	ms0 := m.MemSystemStats()
	if err := m.RunFor(cfg.Cycles); err != nil {
		return Measurement{}, nil, err
	}
	s1 := m.TotalStats()
	ms1 := m.MemSystemStats()

	useful := float64(s1.UsefulCycles - s0.UsefulCycles)
	total := float64(cfg.Cycles) * float64(cfg.Nodes)
	// Count miss TRANSACTIONS (a pending miss retried by a switch-
	// spinning thread is one miss, not many lookups).
	misses := float64((ms1.LocalMisses + ms1.RemoteMisses) - (ms0.LocalMisses + ms0.RemoteMisses))
	refs := float64((s1.LoadCount + s1.StoreCount) - (s0.LoadCount + s0.StoreCount))
	remote := float64(ms1.RemoteMisses - ms0.RemoteMisses)
	remLat := float64(ms1.RemoteLatency - ms0.RemoteLatency)

	meas := Measurement{
		ThreadsPerNode: cfg.ThreadsPerNode,
		Utilization:    useful / total,
	}
	if useful > 0 {
		meas.MissPerCycle = misses / useful
	}
	if refs > 0 {
		meas.MissRatio = misses / refs
	}
	if remote > 0 {
		meas.RemoteLatency = remLat / remote
	}
	return meas, m, nil
}

// Sweep measures p = 1..maxThreads threads per node. The points are
// independent machines and run in parallel on the host; results come
// back in p order regardless of worker count.
func Sweep(base Config, maxThreads int) ([]Measurement, error) {
	return harness.Map(base.Workers, maxThreads, func(i int) (Measurement, error) {
		cfg := base
		cfg.ThreadsPerNode = i + 1
		meas, err := Run(cfg)
		if err != nil {
			return Measurement{}, fmt.Errorf("p=%d: %w", i+1, err)
		}
		return meas, nil
	})
}

// LinearFit returns the least-squares a + b·x fit and its R².
func LinearFit(xs, ys []float64) (a, b, r2 float64) {
	n := float64(len(xs))
	if n < 2 {
		return 0, 0, 0
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return sy / n, 0, 0
	}
	b = (n*sxy - sx*sy) / den
	a = (sy - b*sx) / n
	meanY := sy / n
	var ssTot, ssRes float64
	for i := range xs {
		fy := a + b*xs[i]
		ssTot += (ys[i] - meanY) * (ys[i] - meanY)
		ssRes += (ys[i] - fy) * (ys[i] - fy)
	}
	if ssTot == 0 {
		return a, b, 1
	}
	return a, b, 1 - ssRes/ssTot
}

// BuildProgramForTest exposes the synthetic loop for debugging tools.
func BuildProgramForTest(computePerRef int) *isa.Program { return buildProgram(computePerRef) }
