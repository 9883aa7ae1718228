package sim_test

// Differential and structural tests for the epoch engine (sim's
// epoch.go + proc's epoch.go): multi-node execution through the
// compiled tier across provably safe horizons, in node-major chunks,
// on perfect memory, and in per-node lanes cut back where the fabric or
// the run-time system reaches into them, on ALEWIFE. The engine's
// contract is bit-identical
// simulated results against every other tier, at any window cap, with
// mid-epoch fallbacks (an IPI, trap, or run-ending op inside a
// committed window's reach) stopping BEFORE the unsafe op, and with
// chunks that would not match lockstep (two nodes sharing a word with
// a store, a first touch of a page) rolled back and redone.

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"april/internal/bench"
	"april/internal/cache"
	"april/internal/fault"
	"april/internal/isa"
	"april/internal/mult"
	"april/internal/rts"
	"april/internal/sim"
)

// TestEpochMatchesOracles is the engine's differential matrix: two
// programs (perfect memory and the full ALEWIFE memory system) run
// under the compiled tier, uncapped and with its epoch windows capped
// at 1, 2 and 4 cycles. Every cell must agree
// with the reference tier on cycles, result, and every node's full
// statistics.
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
			ref := runCompileSide(t, tc.src, mk(sim.TierReference))
			caps := map[string]uint64{"epoch": 0, "epoch-k1": 1, "epoch-k2": 2, "epoch-k4": 4}
			for name, windowCap := range caps {
				t.Run(name, func(t *testing.T) {
					compareCompiled(t, runCompileSide(t, tc.src, mk(sim.TierCompiled), sim.WindowCap(windowCap)), ref)
				})
			}
		})
	}
}

// TestEpochHorizonBoundaryDeliveries sweeps the window cap across
// every small value on a perfect-memory machine whose nodes sleep in
// multi-cycle traps and post IPIs. Wakes land at arbitrary cycles
// relative to the window grid, so the sweep puts them exactly ON a
// window boundary and one cycle INSIDE a would-be window at every
// alignment; all runs must stay bit-identical to the reference tier.
func TestEpochHorizonBoundaryDeliveries(t *testing.T) {
	src := bench.QueensSource(5)
	ref := runCompileSide(t, src, sim.Config{Nodes: 4, Tier: sim.TierReference})
	for k := uint64(0); k <= 6; k++ {
		out := runCompileSide(t, src, sim.Config{Nodes: 4}, sim.WindowCap(k))
		if out.cycles != ref.cycles || out.value != ref.value {
			t.Errorf("cap k=%d: cycles %d result %q, reference %d %q",
				k, out.cycles, out.value, ref.cycles, ref.value)
		}
		for i := range out.stats {
			if !reflect.DeepEqual(out.stats[i], ref.stats[i]) {
				t.Errorf("cap k=%d node %d stats diverge", k, i)
			}
		}
	}
}

// TestEpochUnsafeOpsForceFallback pins the mid-epoch fallback
// mechanism: on a multi-node machine the runtime's syscalls, IPIs
// (STIO is refused by EpochRun) and traps all land inside stretches
// the horizon bound would otherwise cover, so the engine must both
// commit real windows AND stop early for the unsafe ops — never reorder
// them. The run is held bit-identical by TestEpochMatchesOracles; here
// we assert the engine's telemetry shows both behaviors occurred.
func TestEpochUnsafeOpsForceFallback(t *testing.T) {
	out := runCompileSide(t, bench.QueensSource(6), sim.Config{Nodes: 8})
	et := out.m.EpochTelemetry()
	if et.Windows == 0 {
		t.Fatal("epoch engine committed no windows on an 8-node run")
	}
	if et.Cycles == 0 {
		t.Error("epoch windows committed no complete cycles")
	}
	if et.Fallbacks == 0 {
		t.Error("no mid-epoch fallbacks: unsafe ops (IPIs, syscalls, traps) cannot all have landed on window boundaries")
	}
	var windows uint64
	for _, c := range et.LenHist {
		windows += c
	}
	if windows != et.Windows {
		t.Errorf("length histogram sums to %d windows, telemetry says %d", windows, et.Windows)
	}
	var epochOps uint64
	for _, n := range out.m.Nodes {
		epochOps += n.Proc.EpochOps
	}
	if epochOps != et.Ops {
		t.Errorf("per-processor EpochOps sum %d != engine Ops %d", epochOps, et.Ops)
	}
	if et.Ops < et.Cycles {
		t.Errorf("Ops %d < Cycles %d: a committed cycle steps every stepper", et.Ops, et.Cycles)
	}
}

// TestEpochScope pins what the engine runs where: on 8-node queens the
// compiled tier opens no window on ALEWIFE but runs lanes there, which
// commit most of the instructions (and reach cache hits through the
// port's LaneHit), and opens windows and runs no lane on perfect memory.
func TestEpochScope(t *testing.T) {
	src := bench.QueensSource(6)
	alewife := runCompileSide(t, src, sim.Config{Nodes: 8, Alewife: &sim.AlewifeConfig{}})
	et := alewife.m.EpochTelemetry()
	if et.Windows != 0 {
		t.Errorf("ALEWIFE run opened %d epoch windows, want 0", et.Windows)
	}
	var instructions, epochOps uint64
	for _, n := range alewife.m.Nodes {
		instructions += n.Proc.Stats.Instructions
		epochOps += n.Proc.EpochOps
	}
	if committed := et.LaneOps - et.LaneUndoneOps; committed != epochOps || 2*committed < instructions {
		t.Errorf("lanes committed %d ops (EpochOps %d) of %d instructions, want the same and over half",
			committed, epochOps, instructions)
	}
	perfect := runCompileSide(t, src, sim.Config{Nodes: 8})
	if pt := perfect.m.EpochTelemetry(); pt.Windows == 0 || pt.Lanes != 0 {
		t.Errorf("perfect-memory run opened %d epoch windows and ran %d lanes, want some and none", pt.Windows, pt.Lanes)
	}
}

// TestEpochFaultsArmedIdentity runs seeded fault plans (hop jitter,
// link stalls, delayed directory replies) under both tiers. Faults
// perturb only the ALEWIFE fabric, where the compiled tier opens no
// epoch window but its fused windows must still stop at every shifted
// delivery and recall deadline.
func TestEpochFaultsArmedIdentity(t *testing.T) {
	src := bench.QueensSource(5)
	for seed := uint64(1); seed <= 3; seed++ {
		fc := fault.Default(seed)
		mk := func(tier sim.Tier) sim.Config {
			f := fc
			return sim.Config{Nodes: 8, Alewife: &sim.AlewifeConfig{}, Faults: &f, Tier: tier}
		}
		ref := runCompileSide(t, src, mk(sim.TierReference))
		out := runCompileSide(t, src, mk(sim.TierCompiled))
		if out.cycles != ref.cycles || out.value != ref.value {
			t.Errorf("seed %d: compiled %d %q, reference %d %q",
				seed, out.cycles, out.value, ref.cycles, ref.value)
		}
		for i := range out.stats {
			if !reflect.DeepEqual(out.stats[i], ref.stats[i]) {
				t.Errorf("seed %d node %d stats diverge under faults", seed, i)
			}
		}
	}
}

// TestEpochKindsTierInvariant: the per-micro-kind dispatch counters
// must be identical whether an op executed through EpochRun, the fused
// inline path, or plain per-op dispatch — a refused op must not
// pre-count the dispatch its fallback Step will count.
func TestEpochKindsTierInvariant(t *testing.T) {
	src := bench.QueensSource(6)
	on := runCompileSide(t, src, sim.Config{Nodes: 8})
	off := runCompileSide(t, src, sim.Config{Nodes: 8}, sim.WindowCap(1))
	if on.m.EpochTelemetry().Windows == 0 {
		t.Fatal("no epoch windows: the comparison would measure nothing")
	}
	if !reflect.DeepEqual(on.m.KindTotals(), off.m.KindTotals()) {
		t.Errorf("kind totals diverge:\nepoch:   %v\nno-epoch: %v",
			on.m.KindTotals(), off.m.KindTotals())
	}
}

// TestEpochSteadyStateAllocRate is the epoch-specific allocation
// guard: windows reuse the coordinator's existing scratch (no
// per-window state), lanes reuse pooled records and scratch sized when
// the engine is armed, and the telemetry is plain counters, so in
// steady state a 16-node run with the engine armed allocates no more
// per window than the same run with it capped off, on perfect memory
// (windows) and on ALEWIFE (lanes). (The run itself still allocates a
// little as the runtime grows its task tree; the two machines do
// identical simulated work.)
func TestEpochSteadyStateAllocRate(t *testing.T) {
	t.Run("perfect", func(t *testing.T) { epochAllocRate(t, sim.Config{Nodes: 16, Profile: rts.APRIL}) })
	t.Run("alewife", func(t *testing.T) {
		epochAllocRate(t, sim.Config{Nodes: 16, Profile: rts.APRIL, Alewife: &sim.AlewifeConfig{}})
	})
}

// epochAllocRate is one cell of TestEpochSteadyStateAllocRate: the
// machine cfg with the epoch engine armed (windows on perfect memory,
// lanes on ALEWIFE) against the same machine capped to none.
func epochAllocRate(t *testing.T, cfg sim.Config) {
	allocs := func(tune ...func(*sim.Machine)) (float64, uint64) {
		m, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range tune {
			f(m)
		}
		prog, err := mult.Compile(bench.QueensSource(8), mult.Mode{HardwareFutures: true}, m.StaticHeap())
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Load(prog); err != nil {
			t.Fatal(err)
		}
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
		return perWindow, after.Windows + after.Lanes - before.Windows - before.Lanes
	}
	on, windows := allocs()
	off, _ := allocs(sim.WindowCap(1))
	t.Logf("allocs per 5000-cycle window: %.0f with %d epoch windows or lanes, %.0f with none", on, windows, off)
	if windows == 0 {
		t.Fatal("epoch engine idle in the measured windows: the guard would measure nothing")
	}
	if on > off {
		t.Errorf("epoch windows add %.0f allocations per 5000 cycles", on-off)
	}
}

// conflictSrc is the raw program of TestEpochConflictsMatchReference.
// Every node loops over its own counter and, at strides that differ by
// node, executes a div (refused by the epoch engine, so windows stop at
// staggered cycles and earlier lanes overrun), increments a counter all
// nodes share (a conflict whenever two lanes of a chunk reach it), and
// stores to the first word of a fresh page. The word at shared+0 is read
// by every node and stored by none, which must not abort anything.
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
func rawMachine(t *testing.T, src string, cfg sim.Config, regs func(i int, shared, region uint32) map[uint8]isa.Word) *sim.Machine {
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

// TestEpochConflictsMatchReference forces the paths no Table 3 program
// takes: chunks that abort on a shared word or a fresh page, and lanes
// rolled back and replayed to a later lane's refusal. At 2, 4 and 16
// nodes the compiled tier must match the reference tier on the result,
// every node's Stats and Kinds, and the Snapshot bytes at every
// boundary of RunWindow slices of 1, 7 and 64 cycles before the run
// ends.
func TestEpochConflictsMatchReference(t *testing.T) {
	for _, nodes := range []int{2, 4, 16} {
		t.Run(fmt.Sprintf("%dp", nodes), func(t *testing.T) {
			c := matchReference(t, func(tier sim.Tier) *sim.Machine { return conflictMachine(t, nodes, tier) })
			et := c.EpochTelemetry()
			t.Logf("%d cycles, %d windows, %d chunks, %d aborts, %d replayed ops", c.Now(), et.Windows, et.Chunks, et.Aborts, et.ReplayedOps)
			if et.Aborts == 0 || et.ReplayedOps == 0 {
				t.Errorf("aborts %d, replayed ops %d: the rollback paths did not run", et.Aborts, et.ReplayedOps)
			}
		})
	}
}

// matchReference runs the machine mk builds under both tiers: in
// RunWindow slices of 1, 7 and 64 cycles, comparing the Snapshot bytes
// at every boundary before the run ends, then whole, comparing the
// result and every node's Stats and Kinds. It returns the compiled
// tier's whole run.
func matchReference(t *testing.T, mk func(sim.Tier) *sim.Machine) *sim.Machine {
	t.Helper()
	for _, slice := range []uint64{1, 7, 64} {
		c, r := mk(sim.TierCompiled), mk(sim.TierReference)
		for done := false; !done; {
			dc, err := c.RunWindow(slice)
			if err != nil {
				t.Fatal(err)
			}
			dr, err := r.RunWindow(slice)
			if err != nil {
				t.Fatal(err)
			}
			if done = dc; dc != dr {
				t.Fatalf("slice %d: done %v at cycle %d, reference %v", slice, dc, c.Now(), dr)
			}
			if done {
				break // the run ended mid-cycle: Run compares the rest
			}
			ic, err := c.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			ir, err := r.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ic, ir) {
				t.Fatalf("slice %d: images differ at cycle %d", slice, c.Now())
			}
		}
	}
	c, r := mk(sim.TierCompiled), mk(sim.TierReference)
	rc, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	rr, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rc != rr {
		t.Errorf("result %+v, reference %+v", rc, rr)
	}
	for i := range c.Nodes {
		pc, pr := c.Nodes[i].Proc, r.Nodes[i].Proc
		if pc.Stats != pr.Stats {
			t.Errorf("node %d stats:\ncompiled:  %+v\nreference: %+v", i, pc.Stats, pr.Stats)
		}
		if pc.Kinds != pr.Kinds {
			t.Errorf("node %d kinds:\ncompiled:  %v\nreference: %v", i, pc.Kinds, pr.Kinds)
		}
	}
	return c
}

// laneSrc is the raw program of TestLanesMatchReference: one thread per
// node on an ALEWIFE machine with a 16-line cache, forcing every way
// something outside a lane reaches into it. Each iteration reads a
// word every node shares, bumps the node's counter, and sweeps a load
// and a store across 64 blocks of its region (fills evict lines a lane
// hit, and write-backs follow). At strides that differ by node it
// increments a counter all nodes write (invalidations, and recalls of
// lines still interlocked), posts an IPI to the next node, and
// block-transfers its counter over the shared word, a write that
// bypasses the caches and lands on a word every lane reads. Node 0 ends
// the run while the others still run. Registers: r9 fixnum 1, r10 the
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

// laneMachine builds the machine for laneSrc on the given tier.
func laneMachine(t *testing.T, nodes int, tier sim.Tier) *sim.Machine {
	aw := &sim.AlewifeConfig{Cache: cache.Config{SizeBytes: 256, BlockBytes: 16, Assoc: 2}}
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

// TestLanesMatchReference holds ALEWIFE lanes to the reference tier
// where they are cut back: laneSrc at 2, 4, 16 and 64 nodes forces
// fills, recalls, cache-bypassing writes, IPIs and the run's end into
// lanes running ahead; Mul-T queens runs eager, with lazy task creation
// (the run-time system copies stacks lanes write) and with the fault
// plan armed. Every cell must match the reference tier (matchReference),
// and across the cells every cut-back cause must have occurred.
func TestLanesMatchReference(t *testing.T) {
	var cuts sim.EpochStats
	add := func(et sim.EpochStats) {
		cuts.LaneCutsFabric += et.LaneCutsFabric
		cuts.LaneCutsBypass += et.LaneCutsBypass
		cuts.LaneCutsIPI += et.LaneCutsIPI
		cuts.LaneCutsEnd += et.LaneCutsEnd
	}
	for _, nodes := range []int{2, 4, 16, 64} {
		t.Run(fmt.Sprintf("raw-%dp", nodes), func(t *testing.T) {
			c := matchReference(t, func(tier sim.Tier) *sim.Machine { return laneMachine(t, nodes, tier) })
			// RunFor starts lanes too, and keeps no retirement marks,
			// also for a RunWindow that follows it.
			fc, fr := laneMachine(t, nodes, sim.TierCompiled), laneMachine(t, nodes, sim.TierReference)
			for _, m := range []*sim.Machine{fc, fr} {
				if err := m.RunFor(1500); err != nil {
					t.Fatal(err)
				}
				if _, err := m.RunWindow(300); err != nil {
					t.Fatal(err)
				}
			}
			ic, err := fc.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			ir, err := fr.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ic, ir) || fc.EpochTelemetry().Lanes == 0 {
				t.Errorf("RunFor: images equal %v, %d lanes", bytes.Equal(ic, ir), fc.EpochTelemetry().Lanes)
			}
			et := c.EpochTelemetry()
			t.Logf("%d cycles, %d lanes, %d ops, %d undone; cuts: fabric %d, bypass %d, IPI %d, end %d",
				c.Now(), et.Lanes, et.LaneOps, et.LaneUndoneOps, et.LaneCutsFabric, et.LaneCutsBypass, et.LaneCutsIPI, et.LaneCutsEnd)
			if et.Lanes == 0 {
				t.Error("no lane ran")
			}
			add(et)
		})
	}
	t.Run("livelock-4p", func(t *testing.T) {
		c := matchCrash(t, livelockMachine)
		et := c.EpochTelemetry()
		t.Logf("crash at cycle %d: %d lanes, %d end cuts", c.Now(), et.Lanes, et.LaneCutsEnd)
		if et.LaneCutsEnd == 0 {
			t.Error("no lane was ahead of the livelock report: the cell tests nothing")
		}
		add(et)
	})
	fc := fault.Default(2)
	mulT := map[string]sim.Config{
		"queens-eager-4p":  {Nodes: 4, Alewife: &sim.AlewifeConfig{}},
		"queens-lazy-4p":   {Nodes: 4, Alewife: &sim.AlewifeConfig{}, Lazy: true},
		"queens-faults-4p": {Nodes: 4, Alewife: &sim.AlewifeConfig{}, Faults: &fc},
	}
	for name, cfg := range mulT {
		t.Run(name, func(t *testing.T) {
			c := matchReference(t, func(tier sim.Tier) *sim.Machine {
				cfg := cfg
				cfg.Tier, cfg.Profile = tier, rts.APRIL
				m, err := sim.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				prog, err := mult.Compile(bench.QueensSource(4), mult.Mode{HardwareFutures: true}, m.StaticHeap())
				if err != nil {
					t.Fatal(err)
				}
				if err := m.Load(prog); err != nil {
					t.Fatal(err)
				}
				return m
			})
			add(c.EpochTelemetry())
		})
	}
	t.Logf("cuts across cells: fabric %d, bypass %d, IPI %d, end %d",
		cuts.LaneCutsFabric, cuts.LaneCutsBypass, cuts.LaneCutsIPI, cuts.LaneCutsEnd)
	if cuts.LaneCutsFabric == 0 || cuts.LaneCutsBypass == 0 || cuts.LaneCutsIPI == 0 || cuts.LaneCutsEnd == 0 {
		t.Error("a cut-back cause never occurred: its path went untested")
	}
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

// matchCrash runs the machine mk builds under both tiers to a crash
// and requires the same report, and the same Stats and Kinds on every
// node. It returns the compiled tier's machine.
func matchCrash(t *testing.T, mk func(*testing.T, sim.Tier) *sim.Machine) *sim.Machine {
	t.Helper()
	c, r := mk(t, sim.TierCompiled), mk(t, sim.TierReference)
	var reports [2]*fault.Report
	for i, m := range []*sim.Machine{c, r} {
		_, err := m.Run()
		var ce *sim.CrashError
		if !errors.As(err, &ce) {
			t.Fatalf("run ended with %v, want a *sim.CrashError", err)
		}
		reports[i] = ce.Report
	}
	if !reflect.DeepEqual(reports[0], reports[1]) {
		t.Errorf("crash reports differ:\ncompiled:\n%s\nreference:\n%s", reports[0].Render(), reports[1].Render())
	}
	for i := range c.Nodes {
		pc, pr := c.Nodes[i].Proc, r.Nodes[i].Proc
		if pc.Stats != pr.Stats || pc.Kinds != pr.Kinds {
			t.Errorf("node %d at the crash:\ncompiled:  %+v %v\nreference: %+v %v", i, pc.Stats, pc.Kinds, pr.Stats, pr.Kinds)
		}
	}
	// A machine stepped on after its crash steps every node the
	// reference loop would: lanes cut back are scheduled again.
	for _, m := range []*sim.Machine{c, r} {
		if _, err := m.RunWindow(1); err == nil {
			t.Fatal("the cycle after a livelock report ran clean")
		}
	}
	ic, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ir, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ic, ir) {
		t.Errorf("images differ a cycle after the crash, at cycle %d", c.Now())
	}
	return c
}

// BenchmarkEpochWindow is the epoch engine's per-layer row: queens 8
// on four perfect-memory nodes, where windows commit 99% of the
// instructions, reported as host ns per committed epoch op (the timed
// runs over their EpochTelemetry().Ops; set-up is not timed).
func BenchmarkEpochWindow(b *testing.B) {
	var ops uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, err := sim.New(sim.Config{Nodes: 4, Profile: rts.APRIL})
		if err != nil {
			b.Fatal(err)
		}
		prog, err := mult.Compile(bench.QueensSource(8), mult.Mode{HardwareFutures: true}, m.StaticHeap())
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Load(prog); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
		ops += m.EpochTelemetry().Ops
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ops), "ns/epoch_op")
}
