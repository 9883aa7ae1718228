package sim_test

// Differential tests for parked idle nodes (wake.go): on machines that
// are mostly idle, the work-proportional loop elides the idle polls
// that cannot find work and charge them in closed form. Everything an
// observer can see — cycles, answers, every node's Stats, sampler rows,
// snapshot images, the cycle an IPI is taken, the cycle and text of a
// watchdog report — must equal the reference loop's, which executes
// every poll. All tests here match `go test -run Park`, which CI also
// runs under -race.

import (
	"errors"
	"fmt"
	"strconv"
	"testing"

	"april/internal/bench"
	"april/internal/fault"
	"april/internal/isa"
	"april/internal/mult"
	"april/internal/network"
	"april/internal/proc"
	"april/internal/rts"
	"april/internal/sim"
)

// parkCell is one machine of the matrix: what to run (program, memory
// system, size, profile) and on which tier.
type parkCell struct {
	src     string
	nodes   int
	alewife bool
	prof    rts.Profile
	lazy    bool
	faults  *fault.Config

	tier sim.Tier
}

// side builds the cell's machine with the timeline armed.
func (c parkCell) side(t *testing.T) func() *sim.Machine {
	return func() *sim.Machine {
		cfg := sim.Config{Nodes: c.nodes, Profile: c.prof, Lazy: c.lazy, Faults: c.faults, Tier: c.tier}
		if c.alewife {
			cfg.Alewife = &sim.AlewifeConfig{}
		}
		m := build(t, c.src, cfg)
		m.EnableTimeline(256)
		return m
	}
}

// matchPark holds the cell on the compiled tier, driven in RunWindow
// slices of slice cycles, to the reference loop run whole, timeline
// rows included. Each side runs to its end inside its builder, so
// Diverge compares the finished machines; on a difference it runs
// again, comparing at every slice boundary, to name the first cycle.
// It returns the compiled tier's machine.
func (c parkCell) matchPark(t *testing.T, slice uint64) *sim.Machine {
	t.Helper()
	ref := c
	ref.tier = sim.TierReference
	var fm, rm *sim.Machine
	finished := func(cell parkCell, slice uint64, m **sim.Machine) func() (*sim.Machine, error) {
		return func() (*sim.Machine, error) {
			*m = cell.side(t)()
			for done := false; !done; {
				var err error
				if done, err = (*m).RunWindow(slice); err != nil {
					return nil, err
				}
			}
			return *m, nil
		}
	}
	if err := sim.Diverge(finished(c, slice, &fm), finished(ref, whole, &rm), whole); err != nil {
		t.Fatalf("slice %d: %v\nat every boundary: %v", slice, err, sim.Diverge(sideOf(c.side(t)), sideOf(ref.side(t)), slice))
	}
	sameRows(t, fm, rm)
	return fm
}

// TestParkDifferentialMatrix: programs x memory systems x machine sizes
// x poll periods (APRIL polls every 4 cycles, the Encore every 8) x
// RunWindow slice lengths, timeline armed, against the reference loop.
func TestParkDifferentialMatrix(t *testing.T) {
	programs := []struct{ name, src string }{
		{"fib", bench.FibSource(9)},
		{"queens", bench.QueensSource(5)},
	}
	sizes := []int{8, 27, 125}
	if testing.Short() {
		sizes = []int{8, 27}
	}
	for _, p := range programs {
		for _, aw := range []bool{false, true} {
			for _, nodes := range sizes {
				for _, prof := range []rts.Profile{rts.APRIL, rts.Encore} {
					mode := "perfect"
					if aw {
						mode = "alewife"
					}
					cell := parkCell{src: p.src, nodes: nodes, alewife: aw, prof: prof}
					t.Run(fmt.Sprintf("%s/%s/%dp/%s", p.name, mode, nodes, prof.Name), func(t *testing.T) {
						for _, slice := range []uint64{1, 3, 7, 4096} {
							if tel := cell.matchPark(t, slice).ParkTelemetry(); tel.PollsElided == 0 {
								t.Errorf("slice %d: no poll was elided: %+v", slice, tel)
							}
						}
					})
				}
			}
		}
	}
}

// TestParkTierPairings: the parked fast loop under the compiled tier on
// a mostly idle ALEWIFE machine, with and without fault plans armed.
func TestParkTierPairings(t *testing.T) {
	base := parkCell{src: bench.QueensSource(5), nodes: 27, alewife: true, prof: rts.APRIL}
	plans := []*fault.Config{nil}
	for seed := uint64(1); seed <= 3; seed++ {
		fc := fault.Default(seed)
		plans = append(plans, &fc)
	}
	for i, plan := range plans {
		cell := base
		cell.faults = plan
		t.Run(fmt.Sprintf("plan%d/fast", i), func(t *testing.T) { cell.matchPark(t, 4096) })
	}
}

// TestParkLazyNeverParks: a lazy machine's idle poll hunts continuation
// markers in simulated memory, which the host cannot watch, so its
// nodes keep polling for real — and still match the reference loop.
func TestParkLazyNeverParks(t *testing.T) {
	for _, nodes := range []int{8, 27} {
		m := parkCell{src: bench.FibSource(10), nodes: nodes, prof: rts.APRIL, lazy: true}.matchPark(t, 7)
		if tel := m.ParkTelemetry(); tel.Parks != 0 || tel.PollsElided != 0 {
			t.Errorf("%d nodes: lazy machine parked: %+v", nodes, tel)
		}
		if m.Sched.Stats.Steals == 0 {
			t.Errorf("%d nodes: lazy run stole no marker", nodes)
		}
	}
}

// spinLoop is a raw thread body for RunFor cells: it never exits,
// never touches memory and never enters the runtime.
const spinLoop = `
loop:   add r8, r8, r9
        ba loop
`

// TestParkRunForIdleNodes: RunFor on a raw machine with fewer threads
// than nodes — most nodes idle for the whole run — in uneven slices,
// with a thread arriving between slices for the parked nodes to find.
func TestParkRunForIdleNodes(t *testing.T) {
	prog, err := isa.Assemble(spinLoop)
	if err != nil {
		t.Fatal(err)
	}
	for _, aw := range []bool{false, true} {
		runFor := func(reference bool) []proc.Stats {
			var awc *sim.AlewifeConfig
			if aw {
				awc = &sim.AlewifeConfig{}
			}
			m, err := sim.New(sim.Config{Nodes: 27, Profile: rts.APRIL, Alewife: awc,
				Tier: tierOf(reference)})
			if err != nil {
				t.Fatal(err)
			}
			m.LoadRaw(prog)
			for _, home := range []int{0, 5, 5, 26} {
				m.SpawnRaw(home, 0, map[uint8]isa.Word{9: isa.MakeFixnum(1)})
			}
			for i, n := range []uint64{1, 2, 3, 50, 1, 997, 5} {
				if i == 4 {
					m.SpawnRaw(13, 0, nil)
				}
				if err := m.RunFor(n); err != nil {
					t.Fatal(err)
				}
				// Every node accounts for every cycle so far, give or
				// take the multi-cycle operation it is inside.
				for id, nd := range m.Nodes {
					if got := nd.Proc.Stats.TotalCycles(); got < m.Now() || got > m.Now()+100 {
						t.Fatalf("reference=%v: node %d accounts for %d cycles at cycle %d", reference, id, got, m.Now())
					}
				}
			}
			var stats []proc.Stats
			for _, n := range m.Nodes {
				stats = append(stats, n.Proc.Stats)
			}
			if !reference && m.ParkTelemetry().PollsElided == 0 {
				t.Errorf("alewife=%v: no poll elided on a machine with 22 idle nodes", aw)
			}
			return stats
		}
		fast, ref := runFor(false), runFor(true)
		for i := range fast {
			if fast[i] != ref[i] {
				t.Errorf("alewife=%v node %d:\nfast: %+v\nref:  %+v", aw, i, fast[i], ref[i])
			}
		}
	}
}

// TestParkSnapshotMidPark: a snapshot taken while nodes are parked is
// byte-identical to the reference-loop machine's image at the same
// cycle (a parked node is written as the busy-remaining it already has
// in the canonical form), and restores to the same finish under the
// fast and reference loops.
func TestParkSnapshotMidPark(t *testing.T) {
	for _, aw := range []bool{false, true} {
		cell := parkCell{src: bench.QueensSource(5), nodes: 27, alewife: aw, prof: rts.APRIL}
		cycles := finish(t, cell.side(t)()).Cycles
		for _, at := range []uint64{cycles / 7, cycles - 601, cycles - 300} {
			t.Run(fmt.Sprintf("alewife=%v/at%d", aw, at), func(t *testing.T) {
				ref := cell
				ref.tier = sim.TierReference
				fast := func() *sim.Machine {
					fm := runTo(t, cell.side(t)(), at)
					if fm.ParkTelemetry().Parks == fm.ParkTelemetry().Unparks {
						t.Fatal("no node is parked at the snapshot cycle")
					}
					return fm
				}
				refAt := func() *sim.Machine { return runTo(t, ref.side(t)(), at) }
				diverge(t, fast, refAt, whole)
				for name, ov := range map[string]sim.RestoreOverrides{
					"fast":      {},
					"reference": {Tier: sim.TierReference},
				} {
					t.Logf("restored under %s", name)
					ov.Timeline, ov.TimelineInterval = true, 256 // the sides' sampler
					diverge(t, func() *sim.Machine { return restore(t, fast(), ov) }, refAt, whole)
				}
			})
		}
	}
}

// ipiProgram is an assembly main (node 0) that burns delay cycles,
// IPIs node 3, then burns a few hundred more so the interrupt is taken
// well before the run ends; the raw thread "second" does the same to
// node 1 and spins.
func ipiProgram(t *testing.T, delay int) *isa.Program {
	t.Helper()
	burn := ""
	for i := 0; i < delay; i++ {
		burn += "        add r10, r10, r0\n"
	}
	prog, err := isa.Assemble(`
.entry main
main:   movi r8, 12          ; fixnum 3: target node
` + burn + `
        stio [r0+16], r8     ; IOIPITarget
        movi r9, 84          ; fixnum 21: payload
        stio [r0+20], r9     ; IOIPISend
        movi r11, 1200
tail:   subcc r11, r11, 4
        bg tail
        movi r8, 0
        jmpl r0, r5+0
second: movi r8, 4           ; fixnum 1: target node
` + burn + `
        stio [r0+16], r8
        movi r9, 88          ; fixnum 22: payload
        stio [r0+20], r9
spin:   ba spin
__task_exit: trap 2
        halt
__main_exit: trap 1
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestParkIPIDelivery: an IPI to a parked node is taken at the cycle
// the reference loop takes it. Two raw threads queued on node 4 arrange
// both in-cycle orders: at cycle 0 node 1 steals the older one, which
// exits at once and leaves node 1 parked, and node 2 steals "second" —
// so node 0 posts to a parked node above it (3) and node 2 to one below
// it (1), while delay sweeps the posting cycle across the poll phases.
func TestParkIPIDelivery(t *testing.T) {
	type delivery struct {
		node  int
		cycle uint64
		word  isa.Word
	}
	for delay := 40; delay < 49; delay++ {
		var fast, ref []delivery
		side := func(reference bool, got *[]delivery) func() *sim.Machine {
			return func() *sim.Machine {
				m, err := sim.New(sim.Config{Nodes: 5, Profile: rts.APRIL, Tier: tierOf(reference)})
				if err != nil {
					t.Fatal(err)
				}
				*got = nil
				for id, n := range m.Nodes {
					n.RT.IPIHook = func(w isa.Word) { *got = append(*got, delivery{id, m.Now(), w}) }
				}
				prog := ipiProgram(t, delay)
				if err := m.Load(prog); err != nil {
					t.Fatal(err)
				}
				m.SpawnRaw(4, prog.Symbols["__task_exit"], nil)
				m.SpawnRaw(4, prog.Symbols["second"], nil)
				return m
			}
		}
		t.Logf("delay %d", delay)
		fm, _ := diverge(t, side(false, &fast), side(true, &ref), whole)
		if len(ref) != 2 || ref[0].node+ref[1].node != 4 {
			t.Fatalf("delay %d: reference loop delivered %v, want one IPI each to nodes 1 and 3", delay, ref)
		}
		if fmt.Sprint(fast) != fmt.Sprint(ref) {
			t.Errorf("delay %d: deliveries (node, cycle, word)\nfast: %v\nref:  %v", delay, fast, ref)
		}
		if tel := fm.ParkTelemetry(); tel.Unparks < 2 {
			t.Errorf("delay %d: IPI targets were not parked: %+v", delay, tel)
		}
	}
}

// TestParkWatchdogCycles: with every node parked nothing lands the loop
// every few cycles, so fast-forward jumps are capped at the watchdog
// watermarks — deadlock, livelock and invariant reports must name the
// reference loop's cycle and carry its message.
func TestParkWatchdogCycles(t *testing.T) {
	// The main thread blocks on a future nobody resolves: the whole
	// machine parks until the deadlock window runs out.
	const futAddr = 0x2000
	blocked, err := isa.Assemble(`
.entry main
main:   movi r8, ` + strconv.Itoa(int(int32(isa.MakeFuture(futAddr)))) + `
        add r8, r8, r0
        jmpl r0, r5+0
__task_exit: trap 2
        halt
__main_exit: trap 1
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	// The main thread spins on an empty I-structure slot: it is
	// requeued after every few fruitless rounds, so parked nodes keep
	// stealing it from each other while nothing retires.
	const bouncing = `
(define v (make-ivector 1))
(vector-ref-sync v 0)`

	geo := network.FitGeometry(4)
	links := make([]int, geo.Nodes()*2*geo.Dim)
	for i := range links {
		links[i] = i
	}

	cases := []struct {
		name  string
		build func(reference bool) *sim.Machine
	}{
		{"deadlock-all-parked", func(reference bool) *sim.Machine {
			m, err := sim.New(sim.Config{Nodes: 9, Profile: rts.APRIL, DeadlockWindow: 10_007,
				Alewife: &sim.AlewifeConfig{}, Tier: tierOf(reference)})
			if err != nil {
				t.Fatal(err)
			}
			m.Mem.MustSetFE(futAddr, false)
			if err := m.Load(blocked); err != nil {
				t.Fatal(err)
			}
			return m
		}},
		{"deadlock-bouncing-thread", func(reference bool) *sim.Machine {
			return build(t, bouncing, sim.Config{Nodes: 8, Tier: tierOf(reference)})
		}},
		{"wedged-network", func(reference bool) *sim.Machine {
			// TestInvariantInducedWedgeAutopsy's wedge: every torus
			// link stalled. (That test arms the checkers, which would
			// put both sides on the reference loop.)
			return build(t, bench.QueensSource(5), sim.Config{Nodes: 4, DeadlockWindow: 60_000,
				Alewife: &sim.AlewifeConfig{Geometry: geo}, Faults: &fault.Config{Seed: 1, StallLinks: links},
				Tier: tierOf(reference)})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Both runs must die at one cycle with one message and one
			// image; Diverge then returns the fast loop's crash.
			var fm *sim.Machine
			err := sim.Diverge(func() (*sim.Machine, error) { fm = tc.build(false); return fm, nil },
				func() (*sim.Machine, error) { return tc.build(true), nil }, whole)
			var ce *sim.CrashError
			if !errors.As(err, &ce) {
				t.Fatalf("run ended with %v, want a *sim.CrashError", err)
			}
			if tel := fm.ParkTelemetry(); tel.PollsElided == 0 {
				t.Errorf("nothing parked before the crash: %+v", tel)
			}
		})
	}
}

// TestParkWorkProportional pins the point of parking by count: on a
// 216-node machine running a futures-free program, the host executes
// an idle poll only where one can find something — each node's first
// look, and the looks around a steal — and every other poll the
// simulated machine makes is elided, exactly. (On ALEWIFE, node 0 also
// polls each time a cache miss rotates it through an empty frame; that
// is work, and not bounded by the machine size.)
func TestParkWorkProportional(t *testing.T) {
	const nodes = 216
	for _, aw := range []bool{false, true} {
		build := func(reference bool) *sim.Machine {
			var awc *sim.AlewifeConfig
			if aw {
				awc = &sim.AlewifeConfig{}
			}
			m, err := sim.New(sim.Config{Nodes: nodes, Profile: rts.APRIL, Alewife: awc,
				Tier: tierOf(reference)})
			if err != nil {
				t.Fatal(err)
			}
			prog, err := mult.Compile(bench.FibSource(12), mult.Mode{HardwareFutures: true, Sequential: true}, m.StaticHeap())
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Load(prog); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			return m
		}
		fm, rm := build(false), build(true)
		tel, rtel := fm.ParkTelemetry(), rm.ParkTelemetry()
		if rtel.PollsElided != 0 || rtel.Parks != 0 {
			t.Errorf("alewife=%v: reference loop parked: %+v", aw, rtel)
		}
		if tel.PollsExecuted+tel.PollsElided != rtel.PollsExecuted {
			t.Errorf("alewife=%v: executed %d + elided %d polls, the reference loop executes %d",
				aw, tel.PollsExecuted, tel.PollsElided, rtel.PollsExecuted)
		}
		// Nodes 1.. never find a thread: all their idle time is polls.
		var idle, executed uint64
		for _, n := range fm.Nodes[1:] {
			idle += n.Proc.Stats.IdleCycles
			executed += n.Proc.IdlePolls
		}
		steals := fm.Sched.Stats.ThreadSteals
		if bound := nodes - 1 + 2*steals; executed > bound {
			t.Errorf("alewife=%v: nodes 1.. executed %d idle polls, want at most one each + 2 x %d steals", aw, executed, steals)
		}
		if !aw && tel.PollsExecuted > nodes+2*steals {
			t.Errorf("executed %d idle polls, want at most nodes + 2 x steals = %d", tel.PollsExecuted, nodes+2*steals)
		}
		period := uint64(rts.APRIL.Idle)
		if idle%period != 0 || idle/period != executed+tel.PollsElided {
			t.Errorf("alewife=%v: nodes 1.. idled %d cycles = %d polls of %d, but executed %d + elided %d",
				aw, idle, idle/period, period, executed, tel.PollsElided)
		}
	}
}

// tierOf names the tier a reference-or-fast pairing runs.
func tierOf(reference bool) sim.Tier {
	if reference {
		return sim.TierReference
	}
	return sim.TierCompiled
}
