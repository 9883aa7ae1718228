// Package sim wires the full machine together — processors (package
// proc) over the multithreading engine (core), the run-time system
// (rts), and optionally the ALEWIFE memory system (cache + directory +
// network) — and drives all nodes in lockstep, one cycle at a time, as
// the paper's simulator does (Figure 4).
//
// Two memory configurations mirror the paper's methodology:
//
//   - Perfect memory (Alewife == nil): no cache or network, every
//     access completes immediately. "Measurements for multiple
//     processor executions on APRIL used the processor simulator
//     without the cache and network simulators, in effect simulating a
//     shared-memory machine with no memory latency" (Section 7). Table
//     3 is reproduced in this mode.
//
//   - ALEWIFE mode: per-node caches kept coherent by a full-map
//     directory over a k-ary n-cube network; remote misses force
//     context switches. Used for the Section 8 model validation.
package sim

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"april/internal/abi"
	"april/internal/calendar"
	"april/internal/core"
	"april/internal/fault"
	"april/internal/heap"
	"april/internal/isa"
	"april/internal/mem"
	"april/internal/network"
	"april/internal/proc"
	"april/internal/rts"
	"april/internal/trace"
)

// Config describes a machine.
type Config struct {
	Nodes       int
	Profile     rts.Profile
	Lazy        bool   // lazy task creation
	MemoryBytes uint32 // simulated physical memory (default 256 MB)
	MaxCycles   uint64 // simulation budget (default 4e9)
	Out         io.Writer

	// Alewife enables the full memory system; nil = perfect memory.
	Alewife *AlewifeConfig

	// Tier selects how the machine executes, never what it computes
	// (see Tier). The zero value is the fastest tier.
	Tier Tier

	// Faults, when non-nil, arms the seeded perturbation plan: bounded
	// per-hop delay jitter, transient link stalls, and delayed directory
	// replies (see internal/fault). Timing shifts, results must not:
	// under any seed the simulated program computes the same answer,
	// only cycle counts may differ.
	Faults *fault.Config

	// Check enables the runtime invariant checkers (see check.go):
	// coherence state agreement on every protocol transition, full/empty
	// consistency at trap boundaries, scheduler thread conservation, and
	// message-pool ownership. Violations abort the run with a structured
	// crash report rather than panicking. The checkers audit at
	// per-cycle watermarks a fused window would cross, so Check runs on
	// TierReference, the oracle.
	Check bool

	// DeadlockWindow overrides how many cycles the machine may go
	// without retiring a single instruction before the watchdog declares
	// a deadlock (0 = the 3M-cycle default). Tests inducing wedges use a
	// short window to fail fast.
	DeadlockWindow uint64

	// SabotageCycle, when non-zero, deliberately corrupts scheduler
	// state at the given cycle (the lowest-ID live thread is marked dead
	// without being recycled, breaking thread conservation). It exists
	// so divergence-bisection tests have a run that is provably clean
	// before the cycle and provably violating after it; see
	// rts.(*Scheduler).CorruptThreadState and snapshot.go. Part of the
	// machine-defining configuration: it changes simulated state, so it
	// is embedded in snapshot images and included in the config hash.
	SabotageCycle uint64
}

// Tier is an execution path: the fast tier and its differential
// oracle. Simulated results are bit-identical under both.
type Tier uint8

const (
	// TierCompiled, the default: the work-proportional loop (wake.go)
	// over the predecoded image, running ahead through the
	// superinstruction handlers in isolated windows (compile.go) and
	// the multi-node epoch engine's lanes (epoch.go). Ops the handlers
	// refuse run on the opcode switch.
	TierCompiled Tier = iota
	// TierReference: dense per-cycle stepping through the opcode-switch
	// interpreter.
	TierReference
)

var tierNames = [...]string{"compiled", "reference"}

// Tiers lists every tier, fastest first.
var Tiers = []Tier{TierCompiled, TierReference}

func (t Tier) String() string {
	if int(t) < len(tierNames) {
		return tierNames[t]
	}
	return fmt.Sprintf("Tier(%d)", t)
}

// Set parses a tier name, so a *Tier serves as a flag.Value.
func (t *Tier) Set(name string) error {
	for i, n := range tierNames {
		if n == name {
			*t = Tier(i)
			return nil
		}
	}
	return fmt.Errorf("unknown tier %q (want %s)", name, strings.Join(tierNames[:], ", "))
}

func (t Tier) valid() error {
	if int(t) >= len(tierNames) {
		return fmt.Errorf("sim: %v out of range", t)
	}
	return nil
}

// ErrDeadlock is returned when the machine stops making progress.
var ErrDeadlock = errors.New("sim: deadlock (no instruction retired for a long time)")

// Node is one ALEWIFE node: processor + runtime (+ cache controller in
// ALEWIFE mode).
type Node struct {
	Proc *proc.Processor
	RT   *rts.NodeRT
	busy int

	cache *cacheCtl // nil in perfect-memory mode

	// lastRetired is the cycle of this node's most recent instruction
	// retirement — per-node progress for the deadlock report (the
	// machine-wide watchdog only knows the newest retirement anywhere).
	lastRetired uint64
}

// Machine is a configured multiprocessor.
type Machine struct {
	Cfg    Config
	Mem    *mem.Memory
	Layout mem.Layout
	Sched  *rts.Scheduler
	Nodes  []*Node

	staticHeap *heap.Heap
	net        *netFabric // nil in perfect-memory mode
	now        uint64
	loaded     bool

	// compileOn reports that Load armed the compiled tier on every
	// node: the run loops then try fusedStep (compile.go) whenever a
	// cycle has exactly one stepper, and on two or more nodes run the
	// epoch engine's lanes (epoch.go) in cycles with two or more.
	// epochLog is the lanes' log (nil on one node), epochTel their
	// telemetry (see telemetry.go) and lanes the lanes in flight.
	// laneCap (0 = laneCycles) is zero outside tests, which set it to
	// cap lanes (1: no lane).
	compileOn bool
	epochLog  *proc.EpochLog
	epochTel  EpochStats
	laneCap   uint64
	lanes     laneSet

	// The work-proportional run loop's node scheduler (see wake.go):
	// every node that steps again sits in the wake calendar at the
	// cycle it next steps (the next cycle, after a 1-cycle
	// instruction); idle nodes sit in the park set until a poll can
	// find work. Unused by the reference loop, which keeps the
	// per-node relative busy counters instead.
	wake calendar.Calendar
	park parkSet

	// Observability (nil unless enabled; see observe.go).
	tracer     *trace.Tracer
	sampler    *trace.Sampler
	lastSample []proc.Stats // per-node stats at the previous sample

	// Robustness (see check.go, autopsy.go, internal/fault).
	plan           *fault.Plan    // nil unless Cfg.Faults armed a plan
	checker        *fault.Checker // nil unless Cfg.Check
	deadlockWin    uint64         // cycles without retirement before ErrDeadlock
	nextSchedCheck uint64         // next scheduler-conservation watermark
	nextWedgeCheck uint64         // next stuck-remote-op (livelock) scan

	// lastProgress is the cycle of the most recent instruction
	// retirement anywhere in the machine — the deadlock watchdog's
	// baseline. A Machine field (not a run-loop local) so detection
	// spans RunWindow boundaries: a windowed driver advancing 64K
	// cycles at a time still trips the watchdog after deadlockWin
	// cycles of no retirement, exactly as one long Run would.
	lastProgress uint64

	// Scheduled state events (see runEventful): whether the fault
	// plan's node wedge and the sabotage corruption have fired. Restore
	// rederives both from the image's cycle — an event has fired iff
	// now >= its cycle, which runEventful guarantees at every window
	// boundary.
	wedgeArmed bool
	sabotaged  bool

	// Checkpoint provenance for crash reports (see autopsy.go and
	// SetCheckpointInfo): the cycle of the most recent image written by
	// the checkpointing driver, its size, and the command line that
	// resumes from it.
	ckptValid bool
	ckptCycle uint64
	ckptBytes int
	ckptCmd   string
}

// Closed ranges for the machine-defining configuration. Nothing a
// feasible machine needs lies outside them (each node takes a 256 KiB
// heap chunk of a memory below 4 GiB); what does is a typo or a hostile
// image, and would otherwise reach an allocation sized by it.
const (
	maxNodes      = 1 << 14
	maxTorusDim   = 14 // 2^14 = maxNodes: a radix >= 2 cannot use more
	maxFrames     = 1 << 8
	maxCostCycles = 1 << 16
	maxCacheBytes = 16 << 20
	maxMemory     = 1<<32 - 256 // mem.New rounds up to 64 words: must not wrap
)

// fill applies the defaults and validates the machine-defining
// configuration. New runs it before allocating anything, Restore through
// New on the identity section of an image.
func (cfg *Config) fill() error {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.MemoryBytes == 0 {
		cfg.MemoryBytes = 256 << 20
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 4_000_000_000
	}
	if err := cfg.Tier.valid(); err != nil {
		return err
	}
	if cfg.Check {
		cfg.Tier = TierReference
	}
	if cfg.Nodes > maxNodes {
		return fmt.Errorf("sim: %d nodes, at most %d", cfg.Nodes, maxNodes)
	}
	p := &cfg.Profile
	if p.Frames <= 0 {
		return fmt.Errorf("sim: profile %q has no task frames", p.Name)
	}
	if p.Frames > maxFrames {
		return fmt.Errorf("sim: profile %q has %d task frames, at most %d", p.Name, p.Frames, maxFrames)
	}
	for _, c := range profileCosts(p) {
		if *c < 0 || *c > maxCostCycles {
			return fmt.Errorf("sim: profile %q has a cost of %d cycles, want 0..%d", p.Name, *c, maxCostCycles)
		}
	}
	if cfg.MemoryBytes > maxMemory {
		return fmt.Errorf("sim: %d bytes of memory, at most %d", cfg.MemoryBytes, maxMemory)
	}
	if err := mem.DefaultLayout(cfg.MemoryBytes).Validate(); err != nil {
		return err
	}
	if cfg.Alewife != nil {
		return cfg.Alewife.fill(cfg.Nodes)
	}
	return nil
}

// profileCosts lists the profile's cycle costs, which fill bounds.
func profileCosts(p *rts.Profile) []*int {
	return []*int{
		&p.TrapEntry, &p.SwitchCycles, &p.TouchResolvedHandler, &p.TouchDecide,
		&p.FutureNew, &p.TaskExit, &p.ThreadLoad, &p.ThreadUnload,
		&p.Steal, &p.StealPerWord, &p.StolenResolve,
		&p.Enqueue, &p.Dequeue, &p.Idle,
		&p.MakeVectorBase, &p.MakeVectorPerWord, &p.Print,
		&p.AllocRefill, &p.BlockRounds,
	}
}

// New builds a machine. Compile programs against StaticHeap(), then
// Load and Run.
func New(cfg Config) (*Machine, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	m := &Machine{Cfg: cfg}
	m.Mem = mem.New(cfg.MemoryBytes)
	m.Layout = mem.DefaultLayout(cfg.MemoryBytes)
	m.staticHeap = heap.New(m.Mem, mem.NewArena(m.Layout.StaticBase, m.Layout.StaticEnd))

	stackArena := mem.NewArena(m.Layout.StackBase, m.Layout.StackEnd)
	heapArena := mem.NewArena(m.Layout.HeapStart, m.Layout.End)
	prof := cfg.Profile
	m.Sched = rts.NewScheduler(m.Mem, &prof, cfg.Lazy, cfg.Nodes, stackArena, heapArena, cfg.Out)

	// The fault plan and checker must exist before initAlewife wires the
	// fabric: the network backends and cache controllers capture them at
	// construction.
	if cfg.Faults != nil {
		m.plan = fault.NewPlan(*cfg.Faults)
	}
	if cfg.Check {
		m.checker = fault.NewChecker(&m.now)
	}
	m.deadlockWin = cfg.DeadlockWindow
	if m.deadlockWin == 0 {
		m.deadlockWin = deadlockWindow
	}
	m.nextSchedCheck = schedCheckInterval
	m.nextWedgeCheck = wedgeInterval

	if cfg.Alewife != nil {
		if err := m.initAlewife(); err != nil {
			return nil, err
		}
	}

	for i := 0; i < cfg.Nodes; i++ {
		engine := core.NewEngine(prof.Frames, prof.SwitchCycles)
		nrt, err := rts.NewNodeRT(m.Sched, i)
		if err != nil {
			return nil, err
		}
		nrt.Check = m.checker
		var port proc.MemPort = &proc.PerfectPort{Mem: m.Mem}
		if cfg.Alewife != nil {
			port = m.newCachePort(i)
		}
		p := proc.New(i, engine, nil, port)
		p.Handler = nrt
		node := &Node{Proc: p, RT: nrt}
		if cp, ok := port.(*cacheCtl); ok {
			node.cache = cp
		}
		p.IO = &ioCtl{m: m, node: i, ctl: node.cache}
		m.Nodes = append(m.Nodes, node)

		// Initialize the per-processor global registers: allocation
		// chunk and node id.
		base, limit, err := m.Sched.HeapChunk(0)
		if err != nil {
			return nil, err
		}
		engine.Globals[isa.GAllocPtr-isa.NumFrameRegs] = isa.Word(base)
		engine.Globals[isa.GAllocLimit-isa.NumFrameRegs] = isa.Word(limit)
		engine.Globals[isa.GSelf-isa.NumFrameRegs] = isa.MakeFixnum(int32(i))
	}
	period := prof.Idle
	if cfg.Lazy {
		period = 0 // a lazy poll probes simulated memory: never park
	}
	m.park.init(cfg.Nodes, period)
	m.rebuildRunLists(make([]uint64, cfg.Nodes))
	return m, nil
}

// StaticHeap is where the compiler places quoted data and globals.
func (m *Machine) StaticHeap() *heap.Heap { return m.staticHeap }

// Load installs the program and creates the main thread on node 0.
func (m *Machine) Load(prog *isa.Program) error {
	taskExit, ok1 := prog.Symbols[abi.SymTaskExit]
	mainExit, ok2 := prog.Symbols[abi.SymMainExit]
	if !ok1 || !ok2 {
		return fmt.Errorf("sim: program lacks runtime stubs (%s/%s)", abi.SymTaskExit, abi.SymMainExit)
	}
	m.Sched.TaskExitPC = taskExit
	m.Sched.MainExitPC = mainExit
	m.install(prog)
	main := m.Sched.NewThread(0)
	main.PC = prog.Entry
	main.NPC = prog.Entry + 1
	main.Regs[isa.RLink] = isa.MakeFixnum(int32(mainExit))
	if m.Cfg.Profile.HardwareFutures {
		main.PSR = core.PSRFutureTrap
	}
	m.Sched.PushReady(main)
	m.loaded = true
	return nil
}

// install puts prog on every node under the configured tier, for Load
// and LoadRaw alike: the reference tier runs the opcode-switch
// interpreter over prog itself; TierCompiled arms the compiled tier
// over one predecoded image shared read-only by every node.
func (m *Machine) install(prog *isa.Program) {
	for _, n := range m.Nodes {
		n.Proc.Prog = prog
	}
	if m.Cfg.Tier == TierReference {
		return
	}
	// Arm the compiled tier over the shared image. On ALEWIFE the
	// clock-free cache-hit port lets the superinstruction handlers
	// complete plain cached accesses.
	micro := prog.Predecode()
	for _, n := range m.Nodes {
		n.Proc.SetCompile(micro, &m.Sched.MainDone)
		if n.cache != nil {
			n.Proc.SetFusedPort(n.cache)
		}
	}
	m.compileOn = true
	m.lanes = laneSet{pos: len(m.Nodes)}
	if len(m.Nodes) < 2 {
		return
	}
	m.epochLog = proc.NewLaneLog(len(m.Nodes), m.Mem)
	m.lanes.on = true
	m.lanes.span = make([]laneSpan, len(m.Nodes))
	m.lanes.live = make([]int, 0, len(m.Nodes))
	m.lanes.late = make([]int, 0, len(m.Nodes))
	m.lanes.hook = m.laneWatch
	if m.net != nil {
		m.net.laneHook = m.laneFabric
	}
}

// Result is the outcome of a run.
type Result struct {
	Cycles    uint64
	Value     isa.Word
	Formatted string
}

// deadlockWindow is how many cycles the machine may go without retiring
// a single instruction before Run declares a deadlock
// (Config.DeadlockWindow overrides it).
const deadlockWindow = 3_000_000

// The livelock watchdog distinguishes "nothing retires" (deadlock) from
// "instructions retire but a remote operation never completes". Every
// wedgeInterval cycles it scans outstanding misses; one older than
// wedgeWindow — far beyond any protocol bound, which is tens of cycles
// per hop — means the memory system wedged while processors spin.
const (
	wedgeInterval = 65_536
	wedgeWindow   = 1_000_000
)

// Run drives the machine until the main thread exits. Calling Run
// after the program already completed (e.g. under RunWindow) returns
// the final Result immediately.
func (m *Machine) Run() (Result, error) {
	if !m.loaded {
		return Result{}, errors.New("sim: no program loaded")
	}
	hit, err := m.runEventful(m.Cfg.MaxCycles)
	if err != nil {
		return Result{}, err
	}
	if hit {
		return Result{}, m.crash(fault.ReasonBudget,
			fmt.Errorf("sim: exceeded cycle budget %d", m.Cfg.MaxCycles))
	}
	if m.checker != nil {
		// End-of-run sweep: audit every block the machine still holds
		// plus final thread conservation.
		m.auditFinal()
		if m.checker.Total() > 0 {
			return Result{}, m.crash(fault.ReasonInvariant, m.checker.Err())
		}
	}
	return m.finish(), nil
}

// RunWindow advances the machine by at most n cycles, stopping early
// when the main thread exits, and reports whether the program
// completed. It is the measurement entry point: allocation-regression
// tests drive a steady-state window at a time inside
// testing.AllocsPerRun, and the introspection server (internal/obs)
// interleaves windows with snapshot requests. Deadlock detection spans
// windows — the last-retirement baseline lives on the Machine — so a
// windowed driver trips the watchdog exactly as one long Run would.
// After RunWindow reports done, call Run to obtain the final Result
// (it returns immediately).
func (m *Machine) RunWindow(n uint64) (bool, error) {
	if !m.loaded {
		return false, errors.New("sim: no program loaded")
	}
	if m.Sched.MainDone {
		return true, nil
	}
	limit := m.Cfg.MaxCycles
	if m.now < limit && n < limit-m.now {
		limit = m.now + n
	}
	hit, err := m.runEventful(limit)
	if err != nil {
		return false, err
	}
	if hit && m.now >= m.Cfg.MaxCycles {
		return false, m.crash(fault.ReasonBudget,
			fmt.Errorf("sim: exceeded cycle budget %d", m.Cfg.MaxCycles))
	}
	return m.Sched.MainDone, nil
}

// runGuarded invokes the selected run loop behind a recover barrier
// that converts runtime memory faults — *mem.Fault panics from the
// Must* accessors — into a structured crash report. Any other panic
// propagates unchanged: those are simulator bugs and should keep their
// stack traces.
func (m *Machine) runGuarded(limit uint64) (hit bool, err error) {
	defer func() {
		m.settleNow()
		r := recover()
		if r == nil {
			m.retireLanes()
			return
		}
		f, ok := r.(*mem.Fault)
		if !ok {
			panic(r)
		}
		// The faulting Step ends the run: lanes ahead of it go back.
		m.cutLanes(m.lanes.pos)
		m.retireLanes()
		hit = false
		err = m.crash(fault.ReasonMemFault, f)
	}()
	if m.Cfg.Tier == TierReference {
		return m.runReferenceUntil(limit)
	}
	return m.runFastUntil(limit)
}

// nextStateEvent returns the cycle of the earliest pending scheduled
// state event — fault-plan wedge arming, sabotage corruption — or
// ^uint64(0) when none is pending.
func (m *Machine) nextStateEvent() uint64 {
	next := ^uint64(0)
	if m.plan != nil && !m.wedgeArmed && m.plan.WedgePending() {
		if c := m.plan.Config().WedgeAtCycle; c < next {
			next = c
		}
	}
	if m.Cfg.SabotageCycle > 0 && !m.sabotaged && m.Cfg.SabotageCycle < next {
		next = m.Cfg.SabotageCycle
	}
	return next
}

// fireStateEvents applies every scheduled state event due at or before
// m.now. Only ever called between runGuarded slices — never mid-cycle —
// so the mutations land at an exact cycle boundary in every execution
// tier (all run loops stop exactly at their limit), and a snapshot
// taken at any window boundary satisfies: event fired iff
// now >= event cycle.
func (m *Machine) fireStateEvents() {
	if m.plan != nil && !m.wedgeArmed && m.plan.WedgePending() && m.now >= m.plan.Config().WedgeAtCycle {
		m.armWedge()
	}
	if m.Cfg.SabotageCycle > 0 && !m.sabotaged && m.now >= m.Cfg.SabotageCycle {
		m.sabotaged = true
		m.Sched.CorruptThreadState()
	}
}

// armWedge fires the fault plan's scheduled node wedge: every torus
// output channel owned by the wedge node becomes permanently stalled.
// The ideal network has no channels to stall, so there the wedge arms
// as a no-op (matching StallLinks, which it generalizes).
func (m *Machine) armWedge() {
	m.wedgeArmed = true
	var chans []int
	if m.net != nil {
		if t, ok := m.net.net.(*network.Torus); ok {
			chans = t.NodeChannels(m.plan.Config().WedgeNode)
		}
	}
	m.plan.ArmWedge(chans)
}

// runEventful drives runGuarded in slices bounded by the next scheduled
// state event, firing each event exactly at its cycle. With no events
// pending (the overwhelmingly common case) the first slice covers the
// whole limit and this is a single runGuarded call.
func (m *Machine) runEventful(limit uint64) (hit bool, err error) {
	for {
		sub := limit
		if ev := m.nextStateEvent(); ev < sub {
			sub = ev
		}
		hit, err = m.runGuarded(sub)
		if err != nil || !hit {
			return hit, err
		}
		// The slice ran its full span: m.now >= sub. Fire anything due
		// here, then either hand back at the caller's limit or continue.
		m.fireStateEvents()
		if sub >= limit {
			return true, nil
		}
	}
}

// deadlockErr builds the deadlock error: the machine-wide counts the
// one-line error always carried, extended with per-node ready/blocked
// occupancy and each node's last retirement cycle so the wedge can be
// localized from the message alone.
func (m *Machine) deadlockErr() error {
	var b strings.Builder
	fmt.Fprintf(&b, "%d threads live, %d ready, %d blocked",
		m.Sched.LiveThreads(), m.Sched.ReadyCount(), m.Sched.BlockedCount())
	blocked := make([]int, len(m.Nodes))
	m.Sched.BlockedByNode(blocked)
	for i, n := range m.Nodes {
		fmt.Fprintf(&b, "; node %d: %d ready, %d blocked, last retired @%d",
			i, m.Sched.ReadyOn(i), blocked[i], n.lastRetired)
	}
	return fmt.Errorf("%w: %s", ErrDeadlock, b.String())
}

// checkWedge is the livelock watchdog: it scans each node's outstanding
// remote operations for one stuck beyond wedgeWindow. Selection is
// deterministic (first node ascending; within a node, the oldest miss,
// ties broken by smallest block) so both run loops report identically.
func (m *Machine) checkWedge() error {
	for _, n := range m.Nodes {
		if n.cache == nil {
			continue
		}
		var worstBlock uint32
		var worstAge uint64
		found := false
		for block, ms := range n.cache.pending {
			age := m.net.now - ms.start
			if age < wedgeWindow {
				continue
			}
			if !found || age > worstAge || (age == worstAge && block < worstBlock) {
				found, worstBlock, worstAge = true, block, age
			}
		}
		if found {
			return m.crash(fault.ReasonLivelock, fmt.Errorf(
				"sim: livelock: node %d remote operation on block %#x outstanding for %d cycles",
				n.Proc.ID, worstBlock, worstAge))
		}
	}
	return nil
}

// watchdogs runs the per-cycle end-of-cycle checks shared by both run
// loops: invariant-violation poll, scheduler-conservation watermark,
// livelock scan, and the no-retirement deadlock window. A nil return
// means keep running.
func (m *Machine) watchdogs() error {
	if m.checker != nil {
		if m.checker.Total() > 0 {
			return m.crash(fault.ReasonInvariant, m.checker.Err())
		}
		if m.now >= m.nextSchedCheck {
			m.checkSched()
			m.nextSchedCheck = m.now + schedCheckInterval
			if m.checker.Total() > 0 {
				return m.crash(fault.ReasonInvariant, m.checker.Err())
			}
		}
	}
	m.laneProgress()
	if m.net != nil && m.now >= m.nextWedgeCheck {
		if err := m.checkWedge(); err != nil {
			return err
		}
		m.nextWedgeCheck = nextWatch(m.now, wedgeInterval)
	}
	// A fused window can leave lastProgress ahead of m.now (the window's
	// last retirement lies in cycles the loop has not yet swept past);
	// progress in the future is progress, so only fire once m.now has
	// moved deadlockWin cycles beyond it.
	if m.now > m.lastProgress && m.now-m.lastProgress > m.deadlockWin {
		return m.crash(fault.ReasonDeadlock, m.deadlockErr())
	}
	return nil
}

// runReferenceUntil is the oracle loop: one iteration per simulated
// cycle, visiting every node to decrement its relative busy counter or
// Step it. The work-proportional loop (runFastUntil) must stay
// bit-identical to this one — the differential tests in
// fastforward_test.go hold the two to that. It returns hitLimit=true
// when m.now reaches limit before the main thread exits.
func (m *Machine) runReferenceUntil(limit uint64) (hitLimit bool, err error) {
	// Deadlock detection is incremental: m.lastProgress tracks the last
	// cycle any node retired an instruction (updated per Step from the
	// per-node retirement counters, so no periodic all-node stats scan
	// — and no scan points the fast-forward jumps could miss).
	for !m.Sched.MainDone {
		// Close the sampling window before executing its boundary cycle,
		// so rows land at identical cycles with or without fast-forward.
		if m.sampler != nil && m.now >= m.sampler.NextBoundary() {
			m.sample()
			m.sampler.Advance(m.now)
		}
		if m.now >= limit {
			return true, nil
		}
		for i, n := range m.Nodes {
			if n.busy > 0 {
				n.busy--
				continue
			}
			retired := n.Proc.Stats.Instructions
			c, err := n.Proc.Step()
			if err != nil {
				return false, fmt.Errorf("cycle %d node %d: %w", m.now, n.Proc.ID, err)
			}
			if c > 1 {
				n.busy = c - 1
			}
			if n.Proc.Stats.Instructions != retired {
				m.lastProgress = m.now
				n.lastRetired = m.now
			}
			if m.Sched.MainDone {
				// The later nodes do not step, but this cycle still
				// passes for the ones inside an operation, exactly as
				// the fast loop's absolute wake cycles count it.
				for _, rest := range m.Nodes[i+1:] {
					if rest.busy > 0 {
						rest.busy--
					}
				}
				break
			}
		}
		if m.net != nil {
			m.net.tick()
		}
		m.now++

		if err := m.watchdogs(); err != nil {
			return false, err
		}
	}
	return false, nil
}

// runFastUntil is the work-proportional loop: each iteration visits only
// the nodes that actually step (see wake.go for where the others wait),
// and whole stretches where nothing can happen are crossed in one
// fastForwardUntil jump. Step order within a cycle is ascending node id,
// exactly as in runReferenceUntil. It returns hitLimit=true when m.now
// reaches limit before the main thread exits.
func (m *Machine) runFastUntil(limit uint64) (hitLimit bool, err error) {
	for !m.Sched.MainDone {
		if m.advance(limit) {
			return true, nil
		}
		steps := m.wake.Due(m.now)
		ls := &m.lanes
		if ls.start = ls.on && (len(steps) > 1 || len(ls.live) > 0); ls.start {
			ls.bound = limit
			if m.sampler != nil {
				ls.bound = min(ls.bound, m.sampler.NextBoundary())
			}
		}
		// With exactly one stepper and no lane in flight, first try to
		// run that node's compiled tier across a whole isolated window
		// (see compile.go).
		if m.compileOn && len(steps) == 1 && !ls.start {
			used, err := m.fusedStep(steps[0], limit)
			if err != nil {
				return false, err
			}
			if used {
				steps = nil
			}
		}
		if err := m.finishCycle(steps); err != nil {
			return false, err
		}
	}
	return false, nil
}

// advance moves simulated time to the next cycle in which anything can
// happen, closing sampler windows on the way, and reports whether that
// is the limit (which is then not executed, as in the reference loop).
func (m *Machine) advance(limit uint64) (hitLimit bool) {
	// Close the sampling window before executing its boundary cycle, so
	// rows land at identical cycles with or without fast-forward.
	if m.sampler != nil && m.now >= m.sampler.NextBoundary() {
		m.sample()
		m.sampler.Advance(m.now)
	}
	if m.now >= limit {
		return true
	}
	jumpLimit := limit
	// Never jump past a sampling boundary: capping a skip shorter
	// cannot change simulated state (skips compose), it only makes
	// the sampler observe it.
	if m.sampler != nil && m.sampler.NextBoundary() < jumpLimit {
		jumpLimit = m.sampler.NextBoundary()
	}
	// A jump stops at the cycle whose end-of-cycle watchdogs() would
	// fire — deadlock deadline, livelock scan — or every later report
	// and scan shifts away from the reference loop's cycle: a node
	// asleep across it, in a lane, parked or after an isolated window
	// that ended on the watermark, lands the loop no sooner. (The
	// checkers' watermark never applies: Check runs on the reference
	// tier.)
	if wd := m.lastWatchedCycle(); wd < jumpLimit {
		jumpLimit = max(wd, m.now)
	}
	m.fastForwardUntil(jumpLimit)
	m.laneProgress()
	// A capped jump can land exactly on the boundary; the reference
	// loop samples before executing that cycle, so match it here
	// rather than waiting for the next iteration's top-of-loop check.
	if m.sampler != nil && m.now >= m.sampler.NextBoundary() {
		m.sample()
		m.sampler.Advance(m.now)
	}
	// Likewise a jump can land exactly on the limit; the reference
	// loop stops before executing that cycle, so match it.
	return m.now >= limit
}

// nextWatch is the first multiple of interval after now: a watermark's
// next cycle. The reference loop, which runs the watchdogs every cycle,
// keeps each watermark on these multiples; a run loop that lands on it
// late stays on them too.
func nextWatch(now, interval uint64) uint64 { return (now/interval + 1) * interval }

// lastWatchedCycle returns the earliest cycle after whose execution
// watchdogs() acts: it runs with m.now already incremented, so each
// watermark w fires at the end of cycle w-1.
func (m *Machine) lastWatchedCycle() uint64 {
	c := m.lastProgress + m.deadlockWin
	if m.net != nil && m.nextWedgeCheck-1 < c {
		c = m.nextWedgeCheck - 1
	}
	return c
}

// stepNodes executes cycle m.now for the scheduled steppers ids
// (ascending) and for every parked node whose poll finds work, merged
// in ascending id — the reference loop's order. Each node then steps
// again next cycle, sleeps or parks. Retirements feed the deadlock
// watchdog, and the cycle stops at the node that ends the run.
func (m *Machine) stepNodes(ids []int) error {
	end := len(m.Nodes)
	ls := &m.lanes
	for i, lo := 0, 0; ; {
		id := end
		if i < len(ids) {
			id = ids[i]
		}
		// A node whose lane was cut back into this cycle steps at its
		// place in the order.
		late := len(ls.late) > 0 && ls.late[0] < id
		if late {
			id = ls.late[0]
		}
		if m.parkedWork() {
			// A parked poll in the gap [lo, id) that finds work steps
			// first.
			if k := m.parkedPoll(lo, id); k >= 0 {
				id, late = k, false
			}
		}
		if id == end {
			ls.pos = end
			return nil
		}
		if late {
			ls.late = append(ls.late[:0], ls.late[1:]...)
		} else if i < len(ids) && id == ids[i] {
			i++
		}
		lo = id + 1
		n := m.Nodes[id]
		if ls.on && ls.span[id].end != 0 {
			m.retireLane(id)
		}
		retired, inline := n.Proc.Stats.Instructions, n.Proc.InlineSteps
		ls.pos = id
		c, err := n.Proc.Step()
		if err != nil {
			m.cutLanes(id)
			m.settleParked(m.now, id)
			ls.pos = end
			return fmt.Errorf("cycle %d node %d: %w", m.now, id, err)
		}
		// An inline op predicts a lane-safe next op: with lanes
		// starting this cycle the node's next ops run as a lane, if
		// they are, and it sleeps until the lane's end (epoch.go).
		lane := false
		if c > 1 {
			// busy = c-1 in the reference loop means the node next
			// Steps c cycles from now.
			m.sleep(n, id, uint64(c))
		} else if lane = ls.start && n.Proc.InlineSteps != inline; !lane {
			m.wake.Add(m.now, m.now+1, id)
		}
		if n.Proc.Stats.Instructions != retired {
			m.lastProgress = m.now
			n.lastRetired = m.now
		}
		if m.Sched.MainDone {
			m.cutLanes(id)
			m.unparkAll(id)
			ls.pos = end
			return nil
		}
		if lane && !m.startLane(id) {
			m.wake.Add(m.now, m.now+1, id)
		}
	}
}

// sleep schedules node id's next Step c > 1 cycles from now: in the
// park set when that Step is a pure poll within one period, in the wake
// calendar otherwise.
func (m *Machine) sleep(n *Node, id int, c uint64) {
	if c <= m.park.period && n.RT.PurePoll(n.Proc) {
		m.park.add(id, m.now+c)
		return
	}
	m.wake.Add(m.now, m.now+c, id)
}

// parkedPoll unparks and returns the lowest parked node in [lo, hi)
// whose poll at cycle m.now finds work — any of them while a ready
// queue is non-empty, otherwise only one holding an IPI — or -1.
func (m *Machine) parkedPoll(lo, hi int) int {
	pk := &m.park
	phase := int(m.now % pk.period)
	queued := m.Sched.ReadyQueues() > 0
	for id := pk.scan(phase, lo, hi); id >= 0; id = pk.scan(phase, id+1, hi) {
		if pk.next[id] > m.now {
			continue // parked earlier this cycle; first poll a period away
		}
		ipi := m.Nodes[id].Proc.PendingIPIs() > 0
		if !queued && !ipi {
			continue
		}
		m.settle(id, m.now, 0)
		pk.remove(id)
		if ipi {
			pk.ipis--
		}
		pk.unparks++
		return id
	}
	return -1
}

// settle charges node id's elided polls at step positions before
// (cycle, before): every poll of an earlier cycle, plus the one at
// cycle itself when id < before.
func (m *Machine) settle(id int, cycle uint64, before int) {
	if id < before {
		cycle++
	}
	k := m.park.elide(id, cycle)
	m.Nodes[id].Proc.Stats.IdleCycles += k * m.park.period
}

// settleParked settles every parked node up to the given position.
func (m *Machine) settleParked(cycle uint64, before int) {
	pk := &m.park
	if pk.n == 0 {
		return
	}
	for phase := range pk.count {
		for id := pk.scan(phase, 0, len(m.Nodes)); id >= 0; id = pk.scan(phase, id+1, len(m.Nodes)) {
			m.settle(id, cycle, before)
		}
	}
}

// settleNow settles the parked nodes for an observer between cycles:
// every poll before m.now is charged.
func (m *Machine) settleNow() { m.settleParked(m.now, 0) }

// unparkAll ends parking when node `before` ends the run at cycle
// m.now: the reference loop breaks out of the cycle there, so polls at
// earlier positions are charged and the rest never happen. The nodes go
// back to the wake calendar at their next poll, which is where a
// finished machine's image has always shown its idle nodes (a poll at
// m.now itself, its slot already taken, is written as due).
func (m *Machine) unparkAll(before int) {
	m.settleParked(m.now, before)
	pk := &m.park
	for id, at := range pk.next {
		if at != calendar.None {
			pk.remove(id)
			m.wake.Add(m.now, at, id)
		}
	}
	pk.ipis = 0
}

// noteIPI records that an IPI is about to be posted to node id: a parked
// node must leave the park set at its next poll to take the trap.
func (m *Machine) noteIPI(id int) {
	if m.park.has(id) && m.Nodes[id].Proc.PendingIPIs() == 0 {
		m.park.ipis++
	}
	if m.lanes.on {
		// An IPI is taken before the target's next op: its lane goes
		// back to the posting Step.
		m.cutLane(id, m.now, m.lanes.pos, &m.epochTel.LaneCutsIPI, true)
	}
}

// finishCycle steps ids at cycle m.now and closes the cycle: fabric
// tick, clock, watchdogs.
func (m *Machine) finishCycle(ids []int) error {
	if err := m.stepNodes(ids); err != nil {
		return err
	}
	if m.net != nil {
		m.net.tick()
	}
	m.now++
	return m.watchdogs()
}

// finish closes the final sampling window and packages the result.
func (m *Machine) finish() Result {
	if m.sampler != nil {
		// Final partial window: the series now sums to the end-of-run
		// Stats exactly.
		m.sample()
	}
	v := m.Sched.MainResult
	return Result{
		Cycles:    m.now,
		Value:     v,
		Formatted: m.Nodes[0].RT.Heap.Format(v),
	}
}

// fastForwardUntil advances simulated time across cycles that are
// provably uneventful, never past limit. Until the earliest scheduled
// wake, no node Steps; and when the memory fabric's next event lies
// beyond that, the per-cycle ticks in between are no-ops too. The
// reference loop spends one iteration per such cycle (decrement each
// busy counter, tick the idle network); this jumps m.now to the next
// cycle where anything can happen in one step. Simulated state after
// the jump is bit-identical to stepping cycle by cycle — the
// differential tests in fastforward_test.go hold the two loops to
// that.
func (m *Machine) fastForwardUntil(limit uint64) {
	next := m.wake.Next(m.now)
	if m.parkedWork() {
		// Parked polls find work: the next one is a Step like any other.
		if pn := m.park.nextPoll(m.now); pn < next {
			next = pn
		}
	}
	if next <= m.now {
		return // a node steps, or a parked one polls, this cycle
	}
	skip := next - m.now
	if m.net != nil {
		// Ticks run with the fabric clock at m.now+1 .. m.now+skip; all
		// of them must end strictly before the fabric's next event.
		ne := m.net.nextEvent()
		if ne <= m.now+1 {
			return
		}
		if d := ne - m.now - 1; d < skip {
			skip = d
		}
	}
	// Land exactly on limit at most: the callers stop (cycle window) or
	// error out (cycle budget) there without executing that cycle.
	if rem := limit - m.now; skip > rem {
		skip = rem
	}
	if skip == 0 {
		return
	}
	if m.net != nil {
		m.net.advance(skip)
	}
	m.now += skip
}

// parkedWork reports whether the polls of parked nodes can find
// anything: a thread in some ready queue, or an IPI to take.
func (m *Machine) parkedWork() bool {
	return m.park.n > 0 && (m.park.ipis > 0 || m.Sched.ReadyQueues() > 0)
}

// Now returns the current simulated cycle.
func (m *Machine) Now() uint64 { return m.now }

// KindTotals sums the per-MicroKind dispatch counters across nodes:
// the machine's opcode mix, keyed by micro-op kind name. Both execution
// tiers maintain the counters identically, so the mix is comparable
// across reference and compiled runs.
func (m *Machine) KindTotals() map[string]uint64 {
	out := make(map[string]uint64, isa.NumMicroKinds)
	for k := range isa.NumMicroKinds {
		out[isa.MicroKind(k).String()] = m.kindTotal(k)
	}
	return out
}

// kindTotal sums micro-op kind k's dispatch counter across nodes.
func (m *Machine) kindTotal(k int) uint64 {
	var s uint64
	for _, n := range m.Nodes {
		s += n.Proc.Kinds[k]
	}
	return s
}

// Switches sums the context switches of every node's engine.
func (m *Machine) Switches() uint64 {
	var s uint64
	for _, n := range m.Nodes {
		s += n.Proc.Engine.Switches
	}
	return s
}

// TotalStats sums the processor statistics across nodes.
func (m *Machine) TotalStats() proc.Stats {
	var s proc.Stats
	for _, n := range m.Nodes {
		ns := n.Proc.Stats
		s.Instructions += ns.Instructions
		s.UsefulCycles += ns.UsefulCycles
		s.WaitCycles += ns.WaitCycles
		s.TrapCycles += ns.TrapCycles
		s.IdleCycles += ns.IdleCycles
		s.LoadCount += ns.LoadCount
		s.StoreCount += ns.StoreCount
		for i := range ns.Traps {
			s.Traps[i] += ns.Traps[i]
		}
	}
	return s
}
