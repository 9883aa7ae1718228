package sim_test

// Differential and structural tests for the epoch engine (sim's
// epoch.go + proc's epoch.go): multi-node execution through the
// compiled tier in per-node lanes, cut back where something outside a
// lane reaches into what it touched, on perfect memory and on ALEWIFE.
// The engine's contract is bit-identical simulated results against the
// reference tier, at any lane cap, with lanes stopping BEFORE an unsafe
// op and cut back exactly where the fabric, an access outside the
// lanes, an IPI or the run's end reaches in.

import (
	"errors"
	"fmt"
	"maps"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"april/internal/bench"
	"april/internal/cache"
	"april/internal/fault"
	"april/internal/isa"
	"april/internal/rts"
	"april/internal/sim"
)

// TestEpochMatchesOracles is the engine's differential matrix: two
// programs (perfect memory and the full ALEWIFE memory system) run
// under the compiled tier, uncapped and with its lanes capped at 0, 1
// and 3 ops (sim.LaneCap 1, 2 and 4). Every cell must agree with the
// reference tier on cycles, result, and every node's full statistics.
func TestEpochMatchesOracles(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		alewife bool
	}{
		{"fib-perfect", bench.FibSource(12), false},
		{"queens-alewife", bench.QueensSource(6), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mk := func(tier sim.Tier) sim.Config {
				cfg := sim.Config{Nodes: 8, Tier: tier}
				if tc.alewife {
					cfg.Alewife = &sim.AlewifeConfig{}
				}
				return cfg
			}
			caps := map[string]uint64{"epoch": 0, "epoch-k1": 1, "epoch-k2": 2, "epoch-k4": 4}
			for name, laneCap := range caps {
				t.Run(name, func(t *testing.T) {
					diverge(t, func() *sim.Machine { return build(t, tc.src, mk(sim.TierCompiled), sim.LaneCap(laneCap)) },
						func() *sim.Machine { return build(t, tc.src, mk(sim.TierReference)) }, whole)
				})
			}
		})
	}
}

// TestEpochHorizonBoundaryDeliveries sweeps the lane cap across every
// small value on a perfect-memory machine whose nodes sleep in
// multi-cycle traps and post IPIs. Wakes land at arbitrary cycles
// relative to the lanes' ends, so the sweep puts them exactly ON a
// lane's end and one cycle INSIDE a lane at every alignment; all runs
// must stay bit-identical to the reference tier.
func TestEpochHorizonBoundaryDeliveries(t *testing.T) {
	src := bench.QueensSource(5)
	for k := uint64(0); k <= 6; k++ {
		t.Logf("cap k=%d", k)
		diverge(t, func() *sim.Machine { return build(t, src, sim.Config{Nodes: 4}, sim.LaneCap(k)) },
			func() *sim.Machine { return build(t, src, sim.Config{Nodes: 4, Tier: sim.TierReference}) }, whole)
	}
}

// TestEpochUnsafeOpsForceFallback pins the lanes' stops: on a
// multi-node perfect-memory machine the runtime's syscalls, IPIs (STIO
// is refused in a lane) and traps fall inside stretches lanes would
// otherwise cover, so the engine must both commit lanes AND stop them
// before the unsafe ops, which then run per-op — never reorder them.
// The run is held bit-identical by TestEpochMatchesOracles; here we
// assert the telemetry adds up.
func TestEpochUnsafeOpsForceFallback(t *testing.T) {
	m := build(t, bench.QueensSource(6), sim.Config{Nodes: 8})
	finish(t, m)
	et := m.EpochTelemetry()
	if et.Lanes == 0 || et.Cycles == 0 {
		t.Fatalf("epoch engine committed %d lanes, %d cycles on an 8-node run", et.Lanes, et.Cycles)
	}
	var epochOps, instructions uint64
	for _, n := range m.Nodes {
		epochOps += n.Proc.EpochOps
		instructions += n.Proc.Stats.Instructions
	}
	if epochOps != et.Cycles || et.Cycles != et.LaneOps-et.LaneUndoneOps {
		t.Errorf("per-processor EpochOps sum %d, lane cycles %d, lane ops %d less %d undone", epochOps, et.Cycles, et.LaneOps, et.LaneUndoneOps)
	}
	if epochOps >= instructions {
		t.Errorf("lanes committed all %d instructions: no unsafe op ran per-op", instructions)
	}
}

// TestEpochScope pins what the engine runs where: on 8-node queens the
// compiled tier runs lanes on ALEWIFE (reaching cache hits through the
// port's LaneHit) and on perfect memory, and on both they commit most
// of the instructions.
func TestEpochScope(t *testing.T) {
	src := bench.QueensSource(6)
	for name, cfg := range map[string]sim.Config{
		"alewife": {Nodes: 8, Alewife: &sim.AlewifeConfig{}},
		"perfect": {Nodes: 8},
	} {
		m := build(t, src, cfg)
		finish(t, m)
		et := m.EpochTelemetry()
		var instructions, epochOps uint64
		for _, n := range m.Nodes {
			instructions += n.Proc.Stats.Instructions
			epochOps += n.Proc.EpochOps
		}
		if committed := et.LaneOps - et.LaneUndoneOps; et.Lanes == 0 || committed != epochOps || 2*committed < instructions {
			t.Errorf("%s: %d lanes committed %d ops (EpochOps %d) of %d instructions, want the same and over half",
				name, et.Lanes, committed, epochOps, instructions)
		}
	}
}

// TestEpochFaultsArmedIdentity runs seeded fault plans (hop jitter,
// link stalls, delayed directory replies) under both tiers. Faults
// perturb only the ALEWIFE fabric, where the compiled tier's lanes are
// cut back and its fused windows stopped at every shifted delivery and
// recall deadline.
func TestEpochFaultsArmedIdentity(t *testing.T) {
	src := bench.QueensSource(5)
	for seed := uint64(1); seed <= 3; seed++ {
		fc := fault.Default(seed)
		mk := func(tier sim.Tier) sim.Config {
			f := fc
			return sim.Config{Nodes: 8, Alewife: &sim.AlewifeConfig{}, Faults: &f, Tier: tier}
		}
		t.Logf("seed %d", seed)
		diverge(t, func() *sim.Machine { return build(t, src, mk(sim.TierCompiled)) },
			func() *sim.Machine { return build(t, src, mk(sim.TierReference)) }, whole)
	}
}

// TestEpochKindsTierInvariant: the per-micro-kind dispatch counters
// must be identical whether an op executed in a lane, the fused
// inline path, or plain per-op dispatch — a refused op must not
// pre-count the dispatch its fallback Step will count.
func TestEpochKindsTierInvariant(t *testing.T) {
	src := bench.QueensSource(6)
	on, _ := diverge(t, func() *sim.Machine { return build(t, src, sim.Config{Nodes: 8}) },
		func() *sim.Machine { return build(t, src, sim.Config{Nodes: 8}, sim.LaneCap(1)) }, whole)
	if on.EpochTelemetry().Lanes == 0 {
		t.Fatal("no lanes: the comparison would measure nothing")
	}
}

// TestEpochSteadyStateAllocRate is the epoch-specific allocation
// guard: lanes reuse pooled records, scratch sized when the engine is
// armed and a word index that only grows, and the telemetry is plain
// counters, so in steady state a 16-node run with lanes allocates no
// more per window than the same run with them capped off, on perfect
// memory and on ALEWIFE. (The run itself still allocates a little as
// the runtime grows its task tree; the two machines do identical
// simulated work.)
func TestEpochSteadyStateAllocRate(t *testing.T) {
	t.Run("perfect", func(t *testing.T) { epochAllocRate(t, sim.Config{Nodes: 16, Profile: rts.APRIL}) })
	t.Run("alewife", func(t *testing.T) {
		epochAllocRate(t, sim.Config{Nodes: 16, Profile: rts.APRIL, Alewife: &sim.AlewifeConfig{}})
	})
}

// epochAllocRate is one cell of TestEpochSteadyStateAllocRate: the
// machine cfg with lanes against the same machine capped to none.
func epochAllocRate(t *testing.T, cfg sim.Config) {
	allocs := func(tune ...func(*sim.Machine)) (float64, uint64) {
		m := build(t, bench.QueensSource(8), cfg, tune...)
		// queens(8) runs ~197k cycles at 16 nodes; 1 warm-up + 5
		// measured windows end at 130k.
		if done, err := m.RunWindow(100_000); err != nil || done {
			t.Fatalf("warm-up: done %v, err %v", done, err)
		}
		before := m.EpochTelemetry()
		// The count is of the simulator's allocations alone: with the
		// collector off, none of its own (a GC assist's sudog, the
		// unique-map cleanup after a cycle) can land in a window.
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		var werr error
		perWindow := testing.AllocsPerRun(5, func() {
			if _, err := m.RunWindow(5_000); err != nil {
				werr = err
			}
		})
		if werr != nil {
			t.Fatal(werr)
		}
		after := m.EpochTelemetry()
		return perWindow, after.Lanes - before.Lanes
	}
	on, lanes := allocs()
	off, _ := allocs(sim.LaneCap(1))
	t.Logf("allocs per 5000-cycle window: %.0f with %d lanes, %.0f with none", on, lanes, off)
	if lanes == 0 {
		t.Fatal("no lane ran in the measured windows: the guard would measure nothing")
	}
	if on > off {
		t.Errorf("lanes add %.0f allocations per 5000 cycles", on-off)
	}
}

// conflictSrc is a perfect-memory raw program of
// TestEpochConflictsMatchReference. Every node loops over its own counter and,
// at strides that differ by node, executes a div (refused by the epoch
// engine, so lanes stop at staggered cycles), increments a counter all
// nodes share (a word one lane refuses while another lane in flight
// touched it, and a per-op store that cuts lanes back), and stores to
// the first word of a fresh page (refused in a lane). The word at
// shared+0 is read by every node and stored by none, which must not
// refuse or cut anything.
// Node 0 exits the run with the shared counter; the others retire.
// Registers: r9 fixnum 1, r10 the shared words, r11 the node's region
// (counter at +0), r14 its page cursor, r12 iterations left; r13, r15
// and r16 count down to the next div, shared increment and page, r19,
// r18 and r17 reload them; r7 is zero on node 0.
const conflictSrc = `
loop:   ldnt  r20, [r10+0]
        ldnt  r21, [r11+0]
        add   r21, r21, r20
        add   r21, r21, r9
        stnt  [r11+0], r21
        subcc r13, r13, r9
        bg    shared
        div   r22, r21, r9
        add   r13, r19, r0
shared: subcc r15, r15, r9
        bg    page
        ldnt  r23, [r10+4]
        add   r23, r23, r9
        stnt  [r10+4], r23
        add   r15, r18, r0
page:   subcc r16, r16, r9
        bg    next
        add   r14, r14, 4096
        stnt  [r14+0], r21
        add   r16, r17, r0
next:   subcc r12, r12, r9
        bg    loop
        subcc r0, r7, 0
        be    main
        trap  2
main:   ldnt  r8, [r10+4]
        trap  1
`

// conflictMachine builds the machine for conflictSrc on the given tier.
func conflictMachine(t *testing.T, nodes int, tier sim.Tier) *sim.Machine {
	return rawMachine(t, conflictSrc, sim.Config{Nodes: nodes, Tier: tier},
		func(i int, shared, region uint32) map[uint8]isa.Word {
			return map[uint8]isa.Word{
				7: fix(min(i, 1)), 9: fix(1),
				10: isa.Word(shared), 11: isa.Word(region), 14: isa.Word(region),
				12: fix(90),
				13: fix(1 + i%3), 19: fix(3 + i%4),
				15: fix(1 + i%2), 18: fix(2 + i%3),
				16: fix(2 + i%4), 17: fix(9 + i%5),
			}
		})
}

func fix(n int) isa.Word { return isa.MakeFixnum(int32(n)) }

// rawMachine loads the raw program src on a machine of cfg (APRIL
// profile) and spawns one thread per node with the registers regs
// returns for it, given a heap chunk all nodes share and one of its
// own.
func rawMachine(t *testing.T, src string, cfg sim.Config, regs func(i int, shared, region uint32) map[uint8]isa.Word, opts ...func(*sim.Machine)) *sim.Machine {
	t.Helper()
	prog, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Profile = rts.APRIL
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range opts {
		opt(m)
	}
	m.LoadRaw(prog)
	shared, _, err := m.Sched.HeapChunk(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.Nodes; i++ {
		region, _, err := m.Sched.HeapChunk(0)
		if err != nil {
			t.Fatal(err)
		}
		m.SpawnRaw(i, 0, regs(i, shared, region))
	}
	return m
}

// matchReference holds the machine mk builds under the compiled tier
// to the reference tier (sim.Diverge) in RunWindow slices of 1, 7 and
// 64 cycles, and whole. It returns the compiled tier's whole run.
func matchReference(t *testing.T, mk func(sim.Tier) *sim.Machine) *sim.Machine {
	t.Helper()
	c, _ := diverge(t, func() *sim.Machine { return mk(sim.TierCompiled) },
		func() *sim.Machine { return mk(sim.TierReference) }, 1, 7, 64, whole)
	return c
}

// laneSrc is the main raw program of TestLanesMatchReference: one
// thread per node, on an ALEWIFE machine with a 16-line cache or on
// perfect memory, forcing every way something outside a lane reaches
// into it. Each iteration reads a
// word every node shares, bumps the node's counter, and sweeps a load
// and a store across 64 blocks of its region (fills evict lines a lane
// hit, and write-backs follow). At strides that differ by node it
// increments a counter all nodes write (invalidations, and recalls of
// lines still interlocked), posts an IPI to the next node, and
// block-transfers its counter over the shared word, a write that
// bypasses the caches and lands on a word every lane reads. Node 0 ends
// the run while the others still run. On perfect memory the shared
// counter is a word lanes refuse and per-op stores cut lanes back
// over, and the transfer a bypassing write over a word every lane
// reads. Registers: r9 fixnum 1, r10 the
// shared words, r11 the node's region, r12 iterations left, r26 the
// sweep mask; r13, r15 and r16 count down to the next transfer, shared
// increment and IPI, r19, r18 and r17 reload them; r27 the IPI target,
// r29 the transfer length; r7 is zero on node 0.
const laneSrc = `
loop:   ldnt  r20, [r10+0]
        ldnt  r21, [r11+0]
        add   r21, r21, r20
        add   r21, r21, r9
        stnt  [r11+0], r21
        add   r24, r24, 16
        and   r24, r24, r26
        add   r25, r11, r24
        ldnt  r22, [r25+64]
        stnt  [r25+64], r21
        subcc r15, r15, r9
        bg    ipi
        ldnt  r23, [r10+4]
        add   r23, r23, r9
        stnt  [r10+4], r23
        add   r15, r18, r0
ipi:    subcc r16, r16, r9
        bg    dma
        stio  [r0+16], r27
        stio  [r0+20], r21
        add   r16, r17, r0
dma:    subcc r13, r13, r9
        bg    next
        stio  [r0+32], r11
        stio  [r0+36], r10
        stio  [r0+40], r29
        stio  [r0+44], r0
        add   r13, r19, r0
next:   subcc r12, r12, r9
        bg    loop
        subcc r0, r7, 0
        be    main
        trap  2
main:   ldnt  r8, [r10+4]
        trap  1
`

// laneMachine builds the machine for laneSrc on the given tier, with
// the ALEWIFE memory system or on perfect memory.
func laneMachine(t *testing.T, nodes int, tier sim.Tier, alewife bool) *sim.Machine {
	var aw *sim.AlewifeConfig
	if alewife {
		aw = &sim.AlewifeConfig{Cache: cache.Config{SizeBytes: 256, BlockBytes: 16, Assoc: 2}}
	}
	// Cycles grow with the machine (every node ping-pongs the shared
	// counter), and each one is two snapshots at 1-cycle slices.
	iters := map[int]int{2: 60, 4: 60, 16: 24, 64: 5}[nodes]
	return rawMachine(t, laneSrc, sim.Config{Nodes: nodes, Tier: tier, Alewife: aw},
		func(i int, shared, region uint32) map[uint8]isa.Word {
			return map[uint8]isa.Word{
				7: fix(min(i, 1)), 9: fix(1),
				10: isa.Word(shared), 11: isa.Word(region),
				12: fix(iters - 7*i%5 - iters/2*(1-min(i, 1))), 26: 1008,
				13: fix(5 + i%7), 19: fix(11 + i%13),
				15: fix(2 + i%3), 18: fix(3 + i%4),
				16: fix(4 + i%5), 17: fix(7 + i%6),
				27: fix((i + 1) % nodes), 29: 4,
			}
		})
}

// setSrc is the raw program of TestLanesMatchReference's set cells: two
// threads on each of two ALEWIFE nodes with an 8-set, 2-way cache.
// Each iteration runs 8 register ops, hits the node's own word H, runs
// 24 more, reads the word R all nodes share (storing to it once every
// r19 iterations), and loads the next block of a stream homed on the
// other node, which misses: the thread switches out, and the other
// thread's lane runs while the stream block is filled. A lane that
// starts after that switch hits H and ends before it reaches R.
// Registers: r9 fixnum 1, r10 H, r11 R, r14 the stream's base, r24 its
// offset, r25 the offset mask, r26 the stride (one block of the same
// set), r12 iterations left, r13 counts down to the next store to R
// and r19 reloads it; r7 is zero on the thread that ends the run.
var setSrc = `
loop:   add   r20, r20, r9
        add   r20, r20, r9
        add   r20, r20, r9
        add   r20, r20, r9
        add   r20, r20, r9
        add   r20, r20, r9
        add   r20, r20, r9
        add   r20, r20, r9
        ldnt  r21, [r10+0]
` + strings.Repeat("        add   r20, r20, r9\n", 24) + `        ldnt  r22, [r11+0]
        subcc r13, r13, r9
        bg    stream
        stnt  [r11+0], r20
        add   r13, r19, r0
stream: add   r24, r24, r26
        and   r24, r24, r25
        add   r23, r14, r24
        ldnt  r23, [r23+0]
        subcc r12, r12, r9
        bg    loop
        subcc r0, r7, 0
        be    main
        trap  2
main:   trap  1
`

// setMachine builds the machine for setSrc on the given tier. Node i's
// stream lies in set 1-i, whose blocks the other node homes; hSet and
// rSet place H and R (-1: H in the stream's set), and stores sets
// whether any thread stores to R.
func setMachine(t *testing.T, tier sim.Tier, hSet, rSet int, stores bool) *sim.Machine {
	const block, sets = 16, 8
	aw := &sim.AlewifeConfig{Cache: cache.Config{SizeBytes: 256, BlockBytes: block, Assoc: 2}}
	var second []map[uint8]isa.Word
	m := rawMachine(t, setSrc, sim.Config{Nodes: 2, Tier: tier, Alewife: aw},
		func(i int, shared, region uint32) map[uint8]isa.Word {
			shared = (shared + block*sets - 1) &^ (block*sets - 1)
			region = (region + block*sets - 1) &^ (block*sets - 1)
			h := hSet
			if h < 0 {
				h = 1 - i
			}
			every := 1 << 20
			if stores {
				every = 3 + 2*i
			}
			regs := map[uint8]isa.Word{
				7: fix(0), 9: fix(1),
				10: isa.Word(region + uint32(h)*block), 11: isa.Word(shared + uint32(rSet)*block),
				14: isa.Word(region + 4096 + uint32(1-i)*block),
				25: isa.Word(32*block*sets - block*sets), 26: isa.Word(block * sets),
				12: fix(40 - 5*i), 13: fix(every), 19: fix(every),
			}
			other := maps.Clone(regs)
			other[7], other[12], other[24] = fix(1), fix(30), isa.Word(16*block*sets)
			second = append(second, other)
			if i > 0 {
				regs[7] = fix(1)
			}
			return regs
		})
	for i, regs := range second {
		m.SpawnRaw(i, 0, regs)
	}
	return m
}

// TestLanesMatchReference is the lanes matrix: it holds lanes to the
// reference tier where they are cut back, on both memory systems.
// ALEWIFE: laneSrc at 2, 4, 16 and 64 nodes forces fills, recalls,
// cache-bypassing writes, IPIs and the run's end into lanes running
// ahead; setSrc fills into a cache set a lane hit, fills into one it
// did not (which must spare every lane) and recalls another block of a
// set a lane hit; Mul-T queens runs eager, with lazy task creation (the
// run-time system copies stacks lanes write) and with the fault plan
// armed; a livelock report lands with lanes ahead. Perfect memory:
// laneSrc at 2, 4 and 16 nodes forces per-op and bypassing accesses to
// words lanes touched, IPIs and the run's end; Mul-T fib and queens
// run eager and lazy. TestEpochConflictsMatchReference holds the
// perfect-memory cells that force refused words and pages. Every cell must match the reference tier
// (matchReference), and across the cells of each memory system every
// cut-back cause it has must have occurred.
func TestLanesMatchReference(t *testing.T) {
	cuts := map[bool]*sim.EpochStats{true: {}, false: {}}
	add := func(alewife bool, et sim.EpochStats) {
		c := cuts[alewife]
		c.LaneCutsFabric += et.LaneCutsFabric
		c.LaneCutsWord += et.LaneCutsWord
		c.LaneCutsWordRead += et.LaneCutsWordRead
		c.LaneCutsIPI += et.LaneCutsIPI
		c.LaneCutsEnd += et.LaneCutsEnd
	}
	raw := func(name string, alewife bool, mk func(tier sim.Tier) *sim.Machine) {
		t.Run(name, func(t *testing.T) { add(alewife, matchLanes(t, mk)) })
	}
	for _, nodes := range []int{2, 4, 16, 64} {
		raw(fmt.Sprintf("raw-%dp", nodes), true, func(tier sim.Tier) *sim.Machine { return laneMachine(t, nodes, tier, true) })
	}
	for _, nodes := range []int{2, 4, 16} {
		raw(fmt.Sprintf("perfect-raw-%dp", nodes), false, func(tier sim.Tier) *sim.Machine { return laneMachine(t, nodes, tier, false) })
	}
	for _, c := range []struct {
		name         string
		hSet, rSet   int
		stores       bool
		cuts, spares bool // fabric cuts occur (else none may); spares occur
	}{
		{"fill-touched-set-2p", -1, 4, false, true, false},
		{"fill-other-set-2p", 6, 4, false, false, true},
		{"recall-touched-set-2p", 2, 2, true, true, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			et := matchLanes(t, func(tier sim.Tier) *sim.Machine { return setMachine(t, tier, c.hSet, c.rSet, c.stores) })
			t.Logf("fabric: %d cuts, %d spares", et.LaneCutsFabric, et.LaneSparesFabric)
			if (et.LaneCutsFabric > 0) != c.cuts || c.spares && et.LaneSparesFabric == 0 {
				t.Errorf("fabric: %d cuts, %d spares: the case did not occur", et.LaneCutsFabric, et.LaneSparesFabric)
			}
			add(true, et)
		})
	}
	t.Run("livelock-4p", func(t *testing.T) {
		c := matchCrash(t, livelockMachine)
		et := c.EpochTelemetry()
		t.Logf("crash at cycle %d: %d lanes, %d end cuts", c.Now(), et.Lanes, et.LaneCutsEnd)
		if et.LaneCutsEnd == 0 {
			t.Error("no lane was ahead of the livelock report: the cell tests nothing")
		}
		add(true, et)
	})
	// Without lanes or parked nodes nothing else lands the loop at the
	// livelock scan: the jump after node 0's window must stop there.
	t.Run("livelock-window-2p", func(t *testing.T) {
		c := matchCrash(t, windowLivelockMachine)
		t.Logf("crash at cycle %d", c.Now())
		if et := c.EpochTelemetry(); et.Lanes != 0 {
			t.Errorf("%d lanes ran: the cell tests windows, not lanes", et.Lanes)
		}
	})
	fc := fault.Default(2)
	mulT := []struct {
		name string
		src  string
		cfg  sim.Config
	}{
		{"queens-eager-4p", bench.QueensSource(4), sim.Config{Nodes: 4, Alewife: &sim.AlewifeConfig{}}},
		{"queens-lazy-4p", bench.QueensSource(4), sim.Config{Nodes: 4, Alewife: &sim.AlewifeConfig{}, Lazy: true}},
		{"queens-faults-4p", bench.QueensSource(4), sim.Config{Nodes: 4, Alewife: &sim.AlewifeConfig{}, Faults: &fc}},
		{"perfect-fib-eager-4p", bench.FibSource(9), sim.Config{Nodes: 4}},
		{"perfect-fib-lazy-4p", bench.FibSource(9), sim.Config{Nodes: 4, Lazy: true}},
		{"perfect-queens-eager-4p", bench.QueensSource(4), sim.Config{Nodes: 4}},
		{"perfect-queens-lazy-4p", bench.QueensSource(4), sim.Config{Nodes: 4, Lazy: true}},
	}
	for _, tc := range mulT {
		t.Run(tc.name, func(t *testing.T) {
			c := matchReference(t, func(tier sim.Tier) *sim.Machine {
				cfg := tc.cfg
				cfg.Tier = tier
				return build(t, tc.src, cfg)
			})
			add(tc.cfg.Alewife != nil, c.EpochTelemetry())
		})
	}
	for alewife, c := range cuts {
		t.Logf("alewife %v: cuts across cells: fabric %d, word %d by stores and %d by reads, IPI %d, end %d",
			alewife, c.LaneCutsFabric, c.LaneCutsWord, c.LaneCutsWordRead, c.LaneCutsIPI, c.LaneCutsEnd)
		if alewife && c.LaneCutsFabric == 0 || c.LaneCutsWord == 0 || c.LaneCutsWordRead == 0 || c.LaneCutsIPI == 0 || c.LaneCutsEnd == 0 {
			t.Errorf("alewife %v: a cut-back cause never occurred: its path went untested", alewife)
		}
	}
}

// TestEpochConflictsMatchReference runs conflictSrc on perfect memory
// at 2, 4 and 16 nodes: lanes refuse words another lane in flight
// touched (rule (b)) and stores to fresh pages, and per-op stores to
// the shared counter cut lanes back. Each cell must match the
// reference tier (matchLanes), and the cut-back path must have run.
func TestEpochConflictsMatchReference(t *testing.T) {
	for _, nodes := range []int{2, 4, 16} {
		t.Run(fmt.Sprintf("%dp", nodes), func(t *testing.T) {
			et := matchLanes(t, func(tier sim.Tier) *sim.Machine { return conflictMachine(t, nodes, tier) })
			if et.LaneCutsWord == 0 || et.LaneUndoneOps == 0 {
				t.Errorf("word cuts %d, undone ops %d: the cut-back path did not run", et.LaneCutsWord, et.LaneUndoneOps)
			}
		})
	}
}

// matchLanes holds the machine mk builds to the reference tier with
// lanes running: whole and in slices (matchReference), then from a
// RunFor on in slices of 300 cycles. It returns the whole run's lane
// telemetry.
func matchLanes(t *testing.T, mk func(tier sim.Tier) *sim.Machine) sim.EpochStats {
	t.Helper()
	c := matchReference(t, mk)
	runFor := func(tier sim.Tier) func() *sim.Machine {
		return func() *sim.Machine {
			m := mk(tier)
			if err := m.RunFor(1500); err != nil {
				t.Fatal(err)
			}
			return m
		}
	}
	if fc, _ := diverge(t, runFor(sim.TierCompiled), runFor(sim.TierReference), 300); fc.EpochTelemetry().Lanes == 0 {
		t.Error("RunFor: no lane ran")
	}
	et := c.EpochTelemetry()
	t.Logf("%d cycles, %d lanes, %d ops, %d undone; cuts: fabric %d, word %d by stores and %d by reads, IPI %d, end %d",
		c.Now(), et.Lanes, et.LaneOps, et.LaneUndoneOps, et.LaneCutsFabric, et.LaneCutsWord, et.LaneCutsWordRead, et.LaneCutsIPI, et.LaneCutsEnd)
	if et.Lanes == 0 {
		t.Error("no lane ran")
	}
	return et
}

// livelockSrc keeps every node but one busy on cache hits and register
// ops while that one waits forever on a miss: each node bumps a word of
// its own region r12 times, and node 1, after r13 of them, loads r10, a
// block homed at the node whose router the fault plan wedges. The
// livelock watchdog fires with lanes still running ahead on the busy
// nodes. Registers: r9 fixnum 1, r11 the node's region; r7 is zero on
// node 0, which ends the run.
const livelockSrc = `
loop:   ldnt  r20, [r11+0]
        add   r20, r20, r9
        stnt  [r11+0], r20
        subcc r13, r13, r9
        bne   next
        ldnt  r21, [r10+0]
next:   subcc r12, r12, r9
        bg    loop
        subcc r0, r7, 0
        be    main
        trap  2
main:   trap  1
`

// livelockMachine builds livelockSrc's machine on the given tier: four
// nodes, node 3's router wedged at cycle 2000, node 1's miss to it
// after about 6000 cycles, and the other nodes busy past the livelock
// window.
func livelockMachine(t *testing.T, tier sim.Tier) *sim.Machine {
	const wedged, block = 3, 16
	aw := &sim.AlewifeConfig{Cache: cache.Config{SizeBytes: 256, BlockBytes: block, Assoc: 2}}
	faults := &fault.Config{Seed: 1, WedgeAtCycle: 2000, WedgeNode: wedged}
	return rawMachine(t, livelockSrc, sim.Config{Nodes: 4, Tier: tier, Alewife: aw, Faults: faults},
		func(i int, shared, region uint32) map[uint8]isa.Word {
			stuck := shared + uint32((wedged-int(shared/block)%4+4)%4)*block
			delay := 1 << 28
			if i == 1 {
				delay = 1000
			}
			return map[uint8]isa.Word{
				7: fix(min(i, 1)), 9: fix(1),
				10: isa.Word(stuck), 11: isa.Word(region),
				12: fix(300_000), 13: fix(delay),
			}
		})
}

// windowLivelockMachine is livelockSrc on two nodes with lanes off, so
// that node 0, busy alone, runs in isolated windows: node 1's router is
// wedged at cycle 2000, and after 1000 iterations node 1 loads a block
// homed at node 0, whose request never leaves. The livelock shows at
// the scan ending cycle 1048575, where node 0's window ends on the
// watermark and node 1 sleeps past it between retries.
func windowLivelockMachine(t *testing.T, tier sim.Tier) *sim.Machine {
	const wedged, block = 1, 16
	aw := &sim.AlewifeConfig{Cache: cache.Config{SizeBytes: 256, BlockBytes: block, Assoc: 2}}
	faults := &fault.Config{Seed: 1, WedgeAtCycle: 2000, WedgeNode: wedged}
	homedAt := func(base uint32, home int) uint32 { return base + uint32((home-int(base/block)%2+2)%2)*block }
	return rawMachine(t, livelockSrc, sim.Config{Nodes: 2, Tier: tier, Alewife: aw, Faults: faults},
		func(i int, shared, region uint32) map[uint8]isa.Word {
			iters, delay := 1<<28, 1<<28
			if i == wedged {
				delay = 1000
			}
			return map[uint8]isa.Word{
				7: fix(i), 9: fix(1),
				10: isa.Word(homedAt(shared, 0)), 11: isa.Word(homedAt(region, i)),
				12: fix(iters), 13: fix(delay),
			}
		}, sim.LaneCap(1))
}

// matchCrash runs the machine mk builds under both tiers to a crash
// and requires the same report. It holds the crashed machines to each
// other (sim.Diverge) at the crash and a cycle after it, where a
// machine stepped on after its crash steps every node the reference
// loop would (lanes cut back are scheduled again) and reports the
// livelock again. It returns the compiled tier's machine.
func matchCrash(t *testing.T, mk func(*testing.T, sim.Tier) *sim.Machine) *sim.Machine {
	t.Helper()
	var machines [2]*sim.Machine
	var reports [2]*fault.Report
	crashed := func(i int, tier sim.Tier) func() (*sim.Machine, error) {
		return func() (*sim.Machine, error) {
			machines[i] = mk(t, tier)
			_, err := machines[i].Run()
			var ce *sim.CrashError
			if !errors.As(err, &ce) {
				t.Fatalf("run ended with %v, want a *sim.CrashError", err)
			}
			reports[i] = ce.Report
			return machines[i], nil
		}
	}
	err := sim.Diverge(crashed(0, sim.TierCompiled), crashed(1, sim.TierReference), 1)
	if ce := (*sim.CrashError)(nil); !errors.As(err, &ce) {
		t.Fatalf("from the crash on: %v, want the livelock report again a cycle later", err)
	}
	if !reflect.DeepEqual(reports[0], reports[1]) {
		t.Errorf("crash reports differ:\ncompiled:\n%s\nreference:\n%s", reports[0].Render(), reports[1].Render())
	}
	return machines[0]
}

// BenchmarkEpochLanes is the epoch engine's per-layer row: queens 8 on
// 16 perfect-memory nodes, reported as host ns per committed lane op
// (the timed runs over their EpochTelemetry().Cycles; set-up is not
// timed).
func BenchmarkEpochLanes(b *testing.B) {
	var ops uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := build(b, bench.QueensSource(8), sim.Config{Nodes: 16, Profile: rts.APRIL})
		b.StartTimer()
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
		ops += m.EpochTelemetry().Cycles
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ops), "ns/lane_op")
}
