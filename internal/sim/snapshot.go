package sim

// Deterministic checkpoint/restore: Snapshot serializes the complete
// simulated state of a machine at a cycle boundary into a versioned,
// CRC-32C-checksummed image (container format: internal/snapshot);
// Restore rebuilds a machine from one that provably continues
// bit-identically.
//
// The dividing line the encoders follow everywhere: *simulated* state
// — anything a program, a checker, or a later cycle can observe —
// round-trips exactly; *host-side* state — scratch buffers, freelists,
// dirty sets, derived indices, telemetry of the host's own performance
// — is reconstructed from the simulated state instead. That is what
// lets one image restore under either execution tier (reference or
// compiled): the tiers share simulated semantics and differ only in
// host bookkeeping.
//
// An image is self-contained. It embeds the program (instructions via
// isa.Encode, symbols, entry) and the machine-defining configuration —
// node count, cost profile, memory size, ALEWIFE parameters, fault
// plan, sabotage cycle — and the FNV-64a hash of that identity section
// (snapshot.Hash; the payload checksum is a separate CRC-32C) is the
// header's config hash: two images restore into the same run iff their
// hashes match, which is how the divergence bisector pairs checkpoints
// without decoding them. Host knobs (tier selection, Check, output
// writer) are deliberately NOT part of identity: restoring under a
// different tier than the one that wrote the image is the point.
//
// Not captured, by design:
//   - trace ring contents and sampler rows (host-side flight-recorder
//     windows; the rings' event counters and the sampler's window
//     boundary round-trip as cursors, see internal/trace/snapshot.go)
//   - host telemetry: fused/epoch/park counters restart at zero
//   - the static heap cursor (compile-time state; programs are loaded
//     from the image, never recompiled into the restored machine)

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"

	"april/internal/cache"
	"april/internal/core"
	"april/internal/directory"
	"april/internal/fault"
	"april/internal/isa"
	"april/internal/mem"
	"april/internal/network"
	"april/internal/proc"
	"april/internal/rts"
	"april/internal/snapshot"
)

// Snapshot serializes the machine into a self-contained image. It must
// be called at a cycle boundary — after New+Load, or between Run /
// RunWindow slices — never from inside a running machine.
func (m *Machine) Snapshot() ([]byte, error) {
	if !m.loaded {
		return nil, errors.New("sim: cannot snapshot before Load")
	}
	w := snapshot.NewWriter(m.imageCapacity())
	m.encodeIdentity(w)
	id := snapshot.Hash(w.Bytes())
	m.encodeState(w)
	return w.Seal(id, m.now), nil
}

// Encoded sizes of the image's repeated records.
const (
	pageImageBytes = 4 + mem.PageBytes
	lineImageBytes = 4 + 4 + 1 + 1 + 8
)

// imageCapacity over-estimates the payload so the Writer never regrows:
// exact for the parts that scale with the run (pages, cache lines), a
// rounded-up record size for the rest (instructions, threads, nodes and
// their frames, directory entries with a couple of sharers).
func (m *Machine) imageCapacity() int {
	n0 := m.Nodes[0].Proc
	n := 1<<15 + 8*len(n0.Prog.Code) + 192*m.Sched.NumThreads() +
		(1024+160*len(n0.Engine.Frames))*len(m.Nodes) + pageImageBytes*m.Mem.Resident()
	if m.net != nil {
		for _, c := range m.net.ctls {
			n += 256 + lineImageBytes*c.cache.Occupancy() + 40*c.dir.Entries()
		}
	}
	return n
}

// ConfigHash returns the machine's run identity: the hash a Snapshot
// would carry in its header. Two machines share it iff they run the
// same program under the same machine-defining configuration.
func (m *Machine) ConfigHash() (uint64, error) {
	if !m.loaded {
		return 0, errors.New("sim: cannot hash config before Load")
	}
	w := snapshot.NewWriter(1 << 12)
	m.encodeIdentity(w)
	return snapshot.Hash(w.Bytes()), nil
}

// RestoreOverrides are the host-side knobs a restored machine takes
// from the caller rather than the image: how to execute, not what to
// execute. The zero value restores on the default tier, with no
// checkers and no tracing.
type RestoreOverrides struct {
	Out io.Writer

	Tier  Tier
	Check bool

	Trace            bool   // attach an event tracer (cursors continue from the image)
	Timeline         bool   // attach the activity sampler
	TimelineInterval uint64 // sampler window (0 = default)
}

// Restore rebuilds a machine from a Snapshot image. The returned
// machine continues from the image's cycle bit-identically to the
// machine that wrote it, under any overrides (tier choice never
// affects simulated results; the snapshot differential tests hold
// restore to that). Corrupted, truncated, or version-mismatched images
// fail with structured errors wrapping the internal/snapshot
// sentinels.
func Restore(img []byte, ov RestoreOverrides) (*Machine, error) {
	if err := ov.Tier.valid(); err != nil {
		return nil, err
	}
	hdr, r, err := snapshot.Open(img)
	if err != nil {
		return nil, err
	}
	cfg, prog := decodeIdentity(r)
	if err := r.Err(); err != nil {
		return nil, err
	}
	cfg.Out = ov.Out
	cfg.Tier = ov.Tier
	cfg.Check = ov.Check
	// The checksum passed, so whatever New or Load refuses is what the
	// image says: an identity section no machine could have written.
	m, err := New(cfg)
	if err == nil {
		err = m.Load(prog)
	}
	if err != nil {
		return nil, fmt.Errorf("sim: restore: %w: %v", snapshot.ErrCorrupt, err)
	}
	if ov.Trace {
		m.EnableTracing(0)
	}
	if ov.Timeline {
		m.EnableTimeline(ov.TimelineInterval)
	}
	if err := m.decodeState(r); err != nil {
		return nil, err
	}
	if m.now != hdr.Cycle {
		return nil, fmt.Errorf("%w: header cycle %d, payload cycle %d", snapshot.ErrCorrupt, hdr.Cycle, m.now)
	}
	return m, nil
}

// AuditNow runs the full invariant sweep — every directory entry,
// every cached line, thread conservation — at the machine's current
// cycle and reports the first new violation as a CrashError (with
// autopsy report), or nil when the machine is clean. It is the
// divergence bisector's predicate; it requires a machine built with
// Config.Check.
func (m *Machine) AuditNow() error {
	if m.checker == nil {
		return errors.New("sim: AuditNow requires a machine built with Config.Check")
	}
	before := m.checker.Total()
	m.auditFinal()
	if m.checker.Total() > before {
		return m.crash(fault.ReasonInvariant, m.checker.Err())
	}
	return nil
}

// SetCheckpointInfo records the most recent checkpoint's cycle, its
// image size and the command line that resumes from it, for crash
// reports (autopsy.go): a run that dies after this call tells the user
// exactly how far back recovery starts and how to invoke it.
func (m *Machine) SetCheckpointInfo(cycle uint64, imageBytes int, restoreCmd string) {
	m.ckptValid = true
	m.ckptCycle = cycle
	m.ckptBytes = imageBytes
	m.ckptCmd = restoreCmd
}

// ===========================================================================
// Identity: program + machine-defining configuration. Everything here
// is covered by the header's config hash. Host knobs (tiers, Check,
// Out) are intentionally absent.
// ===========================================================================

func (m *Machine) encodeIdentity(w *snapshot.Writer) {
	cfg := &m.Cfg
	w.Int(cfg.Nodes)
	encodeProfile(w, &cfg.Profile)
	w.Bool(cfg.Lazy)
	w.U32(cfg.MemoryBytes)
	w.U64(cfg.MaxCycles)
	w.U64(cfg.DeadlockWindow)
	w.U64(cfg.SabotageCycle)
	w.Bool(cfg.Alewife != nil)
	if a := cfg.Alewife; a != nil {
		w.U32(a.Cache.SizeBytes)
		w.U32(a.Cache.BlockBytes)
		w.Int(a.Cache.Assoc)
		w.Int(a.MemLatency)
		w.Int(a.Geometry.Dim)
		w.Int(a.Geometry.Radix)
		w.Bool(a.IdealNet)
		w.Int(a.IdealLat)
		w.Int(a.PollCycles)
	}
	w.Bool(cfg.Faults != nil)
	if f := cfg.Faults; f != nil {
		w.U64(f.Seed)
		w.Int(f.MaxHopJitter)
		w.Int(f.StallEvery)
		w.Int(f.StallCycles)
		w.Int(f.MaxReplyDelay)
		w.Ints(f.StallLinks)
		w.U64(f.WedgeAtCycle)
		w.Int(f.WedgeNode)
	}

	prog := m.Nodes[0].Proc.Prog
	w.U32(prog.Entry)
	w.Count(len(prog.Code))
	for _, inst := range prog.Code {
		w.U64(isa.Encode(inst))
	}
	syms := make([]string, 0, len(prog.Symbols))
	for name := range prog.Symbols {
		syms = append(syms, name)
	}
	sort.Strings(syms)
	w.Count(len(syms))
	for _, name := range syms {
		w.String(name)
		w.U32(prog.Symbols[name])
	}
}

func decodeIdentity(r *snapshot.Reader) (Config, *isa.Program) {
	var cfg Config
	cfg.Nodes = r.Int()
	decodeProfile(r, &cfg.Profile)
	cfg.Lazy = r.Bool()
	cfg.MemoryBytes = r.U32()
	cfg.MaxCycles = r.U64()
	cfg.DeadlockWindow = r.U64()
	cfg.SabotageCycle = r.U64()
	if r.Bool() {
		a := &AlewifeConfig{}
		a.Cache.SizeBytes = r.U32()
		a.Cache.BlockBytes = r.U32()
		a.Cache.Assoc = r.Int()
		a.MemLatency = r.Int()
		a.Geometry.Dim = r.Int()
		a.Geometry.Radix = r.Int()
		a.IdealNet = r.Bool()
		a.IdealLat = r.Int()
		a.PollCycles = r.Int()
		cfg.Alewife = a
	}
	if r.Bool() {
		f := &fault.Config{}
		f.Seed = r.U64()
		f.MaxHopJitter = r.Int()
		f.StallEvery = r.Int()
		f.StallCycles = r.Int()
		f.MaxReplyDelay = r.Int()
		f.StallLinks = r.Ints("stall links")
		f.WedgeAtCycle = r.U64()
		f.WedgeNode = r.Int()
		cfg.Faults = f
	}
	if cfg.Nodes <= 0 {
		r.Corrupt("node count %d out of range", cfg.Nodes)
		return cfg, nil
	}

	prog := &isa.Program{Entry: r.U32()}
	ninst := r.Count("instructions")
	prog.Code = make([]isa.Inst, 0, ninst)
	for i := 0; i < ninst; i++ {
		inst, err := isa.Decode(r.U64())
		if err != nil {
			r.Corrupt("instruction %d: %v", i, err)
			return cfg, nil
		}
		prog.Code = append(prog.Code, inst)
	}
	nsym := r.Count("symbols")
	prog.Symbols = make(map[string]uint32, nsym)
	for i := 0; i < nsym; i++ {
		name := r.String()
		prog.Symbols[name] = r.U32()
	}
	if int(prog.Entry) >= len(prog.Code) && r.Err() == nil {
		r.Corrupt("entry %d outside program of %d instructions", prog.Entry, len(prog.Code))
	}
	return cfg, prog
}

func encodeProfile(w *snapshot.Writer, p *rts.Profile) {
	w.String(p.Name)
	w.Int(p.Frames)
	w.Bool(p.HardwareFutures)
	for _, v := range profileCosts(p) {
		w.Int(*v)
	}
}

func decodeProfile(r *snapshot.Reader, p *rts.Profile) {
	p.Name = r.String()
	p.Frames = r.Int()
	p.HardwareFutures = r.Bool()
	for _, v := range profileCosts(p) {
		*v = r.Int()
	}
}

// profileCosts enumerates the profile's integer cost fields in a fixed
// order shared by encode and decode.
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

// ===========================================================================
// State: everything after the identity section.
// ===========================================================================

func (m *Machine) encodeState(w *snapshot.Writer) {
	w.U64(m.now)
	w.U64(m.lastProgress)
	w.U64(m.nextSchedCheck)
	w.U64(m.nextWedgeCheck)

	encodeSched(w, m.Sched.DumpState())

	rem := m.busyRemaining()
	for i, n := range m.Nodes {
		m.encodeNode(w, n, rem[i])
	}

	m.encodeMemory(w)

	w.Bool(m.net != nil)
	if m.net != nil {
		m.encodeFabric(w)
	}

	m.encodeCursors(w)
}

func (m *Machine) decodeState(r *snapshot.Reader) error {
	m.now = r.U64()
	m.lastProgress = r.U64()
	m.nextSchedCheck = r.U64()
	m.nextWedgeCheck = r.U64()

	img := decodeSched(r)
	if r.Err() == nil {
		if err := m.Sched.RestoreState(img); err != nil {
			r.Corrupt("%v", err)
		}
	}

	rem := make([]uint64, len(m.Nodes))
	for i, n := range m.Nodes {
		rem[i] = m.decodeNode(r, n)
	}

	m.decodeMemory(r)

	hasFabric := r.Bool()
	if r.Err() == nil && hasFabric != (m.net != nil) {
		r.Corrupt("image fabric=%v, machine fabric=%v", hasFabric, m.net != nil)
	}
	if hasFabric && r.Err() == nil {
		m.decodeFabric(r)
	}

	m.decodeCursors(r)

	if err := r.Err(); err != nil {
		return err
	}
	if n := r.Remaining(); n != 0 {
		return fmt.Errorf("%w: %d trailing payload bytes", snapshot.ErrCorrupt, n)
	}

	m.rebuildRunLists(rem)

	// Scheduled state events fired iff the image's cycle has passed them
	// (runEventful fires due events before every window boundary, so a
	// snapshot can never be taken in between). The wedge mutates the
	// host-side fault plan, which New rebuilt pristine — re-arm it; the
	// sabotage mutated scheduler state already restored above — only
	// mark it fired.
	if m.plan != nil && m.plan.WedgePending() && m.now >= m.plan.Config().WedgeAtCycle {
		m.armWedge()
	}
	m.sabotaged = m.Cfg.SabotageCycle > 0 && m.now >= m.Cfg.SabotageCycle
	return nil
}

// busyRemaining canonicalizes per-node occupancy: how many cycles
// until each node next Steps. The reference loop keeps it as relative
// busy counters; the work-proportional loops keep absolute wake cycles
// in the queue (0 remaining = on the running list). The canonical form
// restores into either representation.
func (m *Machine) busyRemaining() []uint64 {
	rem := make([]uint64, len(m.Nodes))
	if m.Cfg.Tier == TierReference {
		for i, n := range m.Nodes {
			rem[i] = uint64(n.busy)
		}
		return rem
	}
	for _, e := range m.wakeq.heap {
		if e.wake > m.now {
			rem[e.node] = e.wake - m.now
		}
	}
	// A parked node is settled whenever a run loop returns, so its next
	// uncharged poll is the next Step the reference loop would take.
	for i, at := range m.park.next {
		if at != noWake && at > m.now {
			rem[i] = at - m.now
		}
	}
	return rem
}

// rebuildRunLists installs canonical per-node remaining-busy values
// into the target loop's representation.
func (m *Machine) rebuildRunLists(rem []uint64) {
	if m.Cfg.Tier == TierReference {
		for i, n := range m.Nodes {
			n.busy = int(rem[i])
		}
		return
	}
	m.wakeq.init(len(m.Nodes))
	m.park.init(len(m.Nodes), int(m.park.period))
	m.running = m.running[:0]
	for i := range m.Nodes {
		if rem[i] == 0 {
			m.running = append(m.running, i)
		} else {
			m.wakeq.push(i, m.now+rem[i])
		}
	}
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

func encodeSched(w *snapshot.Writer, img rts.SchedImage) {
	w.Bool(img.MainDone)
	w.U32(uint32(img.MainResult))
	putU64s(w, rtsStatFields(&img.Stats))
	w.Count(len(img.Threads))
	for i := range img.Threads {
		encodeThread(w, &img.Threads[i])
	}
	w.Count(len(img.Ready))
	for _, q := range img.Ready {
		w.Ints(q)
	}
	w.Count(len(img.Waiters))
	for _, wt := range img.Waiters {
		w.U32(wt.Addr)
		w.Ints(wt.Threads)
	}
	w.U32s(img.FreeStacks)
	w.U32s(img.FreeTCBs)
	w.Int(img.StealRR)
	w.U32(img.StackNext)
	w.U32(img.StackLimit)
	w.U32(img.HeapNext)
	w.U32(img.HeapLimit)
}

func decodeSched(r *snapshot.Reader) rts.SchedImage {
	var img rts.SchedImage
	img.MainDone = r.Bool()
	img.MainResult = isa.Word(r.U32())
	getU64s(r, rtsStatFields(&img.Stats))
	img.Threads = make([]rts.Thread, r.Count("threads"))
	for i := range img.Threads {
		decodeThread(r, &img.Threads[i])
	}
	img.Ready = make([][]int, r.Count("ready queues"))
	for i := range img.Ready {
		img.Ready[i] = r.Ints("ready queue")
	}
	img.Waiters = make([]rts.WaiterImage, r.Count("waiters"))
	for i := range img.Waiters {
		img.Waiters[i].Addr = r.U32()
		img.Waiters[i].Threads = r.Ints("waiter threads")
	}
	img.FreeStacks = r.U32s("free stacks")
	img.FreeTCBs = r.U32s("free TCBs")
	img.StealRR = r.Int()
	img.StackNext = r.U32()
	img.StackLimit = r.U32()
	img.HeapNext = r.U32()
	img.HeapLimit = r.U32()
	return img
}

func encodeThread(w *snapshot.Writer, t *rts.Thread) {
	w.Int(t.ID)
	w.U8(uint8(t.State))
	for _, reg := range t.Regs {
		w.U32(uint32(reg))
	}
	w.U32(t.PC)
	w.U32(t.NPC)
	w.U32(uint32(t.PSR))
	w.U32(t.TCB)
	w.U32(t.StackLow)
	w.U32(t.StackTop)
	w.U32(uint32(t.Future))
	w.Int(t.Home)
}

func decodeThread(r *snapshot.Reader, t *rts.Thread) {
	t.ID = r.Int()
	t.State = rts.ThreadState(r.U8())
	for i := range t.Regs {
		t.Regs[i] = isa.Word(r.U32())
	}
	t.PC = r.U32()
	t.NPC = r.U32()
	t.PSR = core.PSR(r.U32())
	t.TCB = r.U32()
	t.StackLow = r.U32()
	t.StackTop = r.U32()
	t.Future = isa.Word(r.U32())
	t.Home = r.Int()
}

// Counter blocks round-trip as their fields in one fixed order, listed
// once per struct so encode and decode cannot drift apart.
func putU64s(w *snapshot.Writer, fields []*uint64) {
	for _, f := range fields {
		w.U64(*f)
	}
}

func getU64s(r *snapshot.Reader, fields []*uint64) {
	for _, f := range fields {
		*f = r.U64()
	}
}

func rtsStatFields(s *rts.Stats) []*uint64 {
	return []*uint64{&s.TasksCreated, &s.Steals, &s.StealWords, &s.Blocks, &s.Requeues,
		&s.Wakes, &s.ThreadSteals, &s.TouchesResolved, &s.TouchesUnresolved}
}

func procStatFields(s *proc.Stats) []*uint64 {
	// Sized up front (a constant, so an inlined call keeps the list on
	// the caller's stack).
	fs := make([]*uint64, 0, 7+len(s.Traps))
	fs = append(fs, &s.Instructions, &s.UsefulCycles, &s.WaitCycles, &s.TrapCycles, &s.IdleCycles)
	for i := range s.Traps {
		fs = append(fs, &s.Traps[i])
	}
	return append(fs, &s.LoadCount, &s.StoreCount)
}

func netStatFields(s *network.Stats) []*uint64 {
	return []*uint64{&s.Messages, &s.FlitsSent, &s.TotalLatency, &s.Delivered, &s.MaxLatency, &s.Hops}
}

// ctlCounterFields lists a controller's cache, directory and miss counters.
func ctlCounterFields(c *cacheCtl) (cacheFs, dirFs, ctlFs []*uint64) {
	ca, d, st := c.cache, c.dir, &c.Stats
	return []*uint64{&ca.Hits, &ca.Misses, &ca.Evictions, &ca.Writebacks, &ca.Invalidations},
		[]*uint64{&d.ReadMisses, &d.WriteMisses, &d.InvalsSent, &d.Fetches, &d.Writebacks},
		[]*uint64{&st.LocalMisses, &st.RemoteMisses, &st.RemoteLatency, &st.Upgrades}
}

// ---------------------------------------------------------------------------
// Nodes: engine, processor, IO controller, runtime trackers
// ---------------------------------------------------------------------------

func (m *Machine) encodeNode(w *snapshot.Writer, n *Node, rem uint64) {
	w.U64(rem)
	w.U64(n.lastRetired)

	e := n.Proc.Engine
	w.Int(e.FP())
	w.U64(e.Switches)
	w.Count(len(e.Frames))
	for i := range e.Frames {
		f := &e.Frames[i]
		for _, reg := range f.R {
			w.U32(uint32(reg))
		}
		w.U32(f.PC)
		w.U32(f.NPC)
		w.U32(uint32(f.PSR))
		w.Int(f.ThreadID)
	}
	for _, g := range e.Globals {
		w.U32(uint32(g))
	}

	p := n.Proc
	w.Bool(p.Halted)
	putU64s(w, procStatFields(&p.Stats))
	for _, k := range p.Kinds {
		w.U64(k)
	}
	ipis := p.DumpIPIs(nil)
	w.Count(len(ipis))
	for _, v := range ipis {
		w.U32(uint32(v))
	}

	ioc := p.IO.(*ioCtl)
	w.Int(ioc.ipiTarget)
	w.U32(ioc.btSrc)
	w.U32(ioc.btDst)
	w.U32(ioc.btLen)
	w.U64(ioc.btReadyAt)

	// The node's private allocation chunk (futures, cons cells): the
	// cursor decides every future address this node hands out next.
	w.U32(n.RT.Heap.Arena.Next)
	w.U32(n.RT.Heap.Arena.Limit)

	stuck := n.RT.DumpStuck()
	w.Bool(stuck != nil)
	if stuck != nil {
		w.Count(len(stuck))
		for _, st := range stuck {
			w.U32(st.PC)
			w.Int(st.Count)
		}
	}
}

// decodeNode installs one node's state and returns its canonical
// remaining-busy count.
func (m *Machine) decodeNode(r *snapshot.Reader, n *Node) uint64 {
	rem := r.U64()
	n.lastRetired = r.U64()

	e := n.Proc.Engine
	fp := r.Int()
	e.Switches = r.U64()
	nframes := r.Count("frames")
	if r.Err() != nil {
		return rem
	}
	if nframes != len(e.Frames) {
		r.Corrupt("image has %d frames, engine has %d", nframes, len(e.Frames))
		return rem
	}
	if fp < 0 || fp >= nframes {
		r.Corrupt("frame pointer %d out of %d frames", fp, nframes)
		return rem
	}
	e.SetFP(fp)
	for i := range e.Frames {
		f := &e.Frames[i]
		for j := range f.R {
			f.R[j] = isa.Word(r.U32())
		}
		f.PC = r.U32()
		f.NPC = r.U32()
		f.PSR = core.PSR(r.U32())
		if f.ThreadID = r.Int(); f.ThreadID >= m.Sched.NumThreads() {
			r.Corrupt("frame %d holds thread %d of %d", i, f.ThreadID, m.Sched.NumThreads())
		}
	}
	for i := range e.Globals {
		e.Globals[i] = isa.Word(r.U32())
	}

	p := n.Proc
	p.Halted = r.Bool()
	getU64s(r, procStatFields(&p.Stats))
	for i := range p.Kinds {
		p.Kinds[i] = r.U64()
	}
	nipi := r.Count("pending IPIs")
	if r.Err() != nil {
		return rem
	}
	ipis := make([]isa.Word, nipi)
	for i := range ipis {
		ipis[i] = isa.Word(r.U32())
	}
	p.RestoreIPIs(ipis)

	ioc := p.IO.(*ioCtl)
	ioc.ipiTarget = decodeNodeID(r, len(m.Nodes))
	ioc.btSrc = r.U32()
	ioc.btDst = r.U32()
	ioc.btLen = r.U32()
	ioc.btReadyAt = r.U64()

	n.RT.Heap.Arena.Next = r.U32()
	n.RT.Heap.Arena.Limit = r.U32()

	if r.Bool() {
		stuck := make([]rts.StuckImage, r.Count("stuck trackers"))
		for i := range stuck {
			stuck[i].PC = r.U32()
			stuck[i].Count = r.Int()
		}
		n.RT.RestoreStuck(stuck)
	} else {
		n.RT.RestoreStuck(nil)
	}
	return rem
}

// ---------------------------------------------------------------------------
// Memory: resident pages only, exact residency
// ---------------------------------------------------------------------------

func (m *Machine) encodeMemory(w *snapshot.Writer) {
	w.U32(m.Mem.Size())
	w.Count(m.Mem.Resident())
	m.Mem.DumpResident(func(id uint32, words *[mem.PageWords]isa.Word, fe *[mem.PageFEWords]uint64) {
		w.U32(id)
		snapshot.PutWords(w, words[:])
		for _, b := range fe {
			w.U64(b)
		}
	})
}

func (m *Machine) decodeMemory(r *snapshot.Reader) {
	size := r.U32()
	if r.Err() == nil && size != m.Mem.Size() {
		r.Corrupt("image has %d bytes of memory, machine has %d", size, m.Mem.Size())
	}
	// Exact residency: evict everything construction and loading made
	// resident, then install only the image's pages.
	m.Mem.Reset()
	for n := r.Count("memory pages"); n > 0 && r.Err() == nil; n-- {
		words, fe, err := m.Mem.InstallPage(r.U32())
		if err != nil {
			r.Corrupt("%v", err)
			return
		}
		snapshot.GetWords(r, words[:])
		for i := range fe {
			fe[i] = r.U64()
		}
	}
}

// ---------------------------------------------------------------------------
// Fabric: network backend + per-node cache/directory controllers
// ---------------------------------------------------------------------------

// netBackend is what both network backends offer the codec; the kind
// byte says which one wrote the image.
type netBackend interface {
	DumpImage() network.Image
	RestoreImage(network.Image) error
}

func netKind(n network.Network) uint8 {
	if _, torus := n.(*network.Torus); torus {
		return 1
	}
	return 0 // *network.Ideal
}

func (m *Machine) encodeFabric(w *snapshot.Writer) {
	f := m.net
	w.U64(f.now)
	w.U8(netKind(f.net))
	encodeNetImage(w, f.net.(netBackend).DumpImage())
	w.Count(len(f.ctls))
	var members []int // one sharer-list buffer for every directory entry
	for _, ctl := range f.ctls {
		members = encodeCtl(w, ctl, members)
	}
}

func (m *Machine) decodeFabric(r *snapshot.Reader) {
	f := m.net
	f.now = r.U64()
	kind := r.U8()
	img := decodeNetImage(r, len(f.ctls))
	if r.Err() != nil {
		return
	}
	if kind != netKind(f.net) {
		r.Corrupt("image network kind %d, machine has kind %d", kind, netKind(f.net))
		return
	}
	if f.now != m.now || img.Now != m.now {
		r.Corrupt("fabric at cycle %d and network at %d on a machine at %d", f.now, img.Now, m.now)
		return
	}
	if err := f.net.(netBackend).RestoreImage(img); err != nil {
		r.Corrupt("%v", err)
		return
	}
	nctl := r.Count("controllers")
	if r.Err() != nil {
		return
	}
	if nctl != len(f.ctls) {
		r.Corrupt("image has %d controllers, machine has %d", nctl, len(f.ctls))
		return
	}
	for _, ctl := range f.ctls {
		decodeCtl(r, ctl)
		if r.Err() != nil {
			return
		}
		// The dirty set and the outbox calendar are host bookkeeping:
		// rebuild them from the simulated state they track, by send's
		// and handleRecall's rules.
		for i := range ctl.outbox {
			f.wakeAt(ctl.node, ctl.outbox[i].readyAt)
		}
		if len(ctl.recallQ) > 0 {
			f.markDirty(ctl.node)
		}
	}
}

func encodeNetImage(w *snapshot.Writer, img network.Image) {
	w.U64(img.Now)
	putU64s(w, netStatFields(&img.Stats))
	w.U64(img.SendSeq)
	w.U64s(img.LastArr)
	encodeMsgs(w, img.Pending)
	w.U64s(img.TxSeq)
	w.Ints(img.Busy)
	w.Count(len(img.Queues))
	for _, q := range img.Queues {
		encodeMsgs(w, q)
	}
	w.Count(len(img.Inbox))
	for _, box := range img.Inbox {
		encodeMsgs(w, box)
	}
}

func decodeNetImage(r *snapshot.Reader, nodes int) network.Image {
	var img network.Image
	img.Now = r.U64()
	getU64s(r, netStatFields(&img.Stats))
	img.SendSeq = r.U64()
	img.LastArr = r.U64s("lastArr")
	img.Pending = decodeMsgs(r, "pending", nodes)
	img.TxSeq = r.U64s("txSeq")
	img.Busy = r.Ints("channel busy")
	nq := r.Count("channel queues")
	if nq > 0 {
		img.Queues = make([][]network.MessageImage, nq)
		for i := range img.Queues {
			img.Queues[i] = decodeMsgs(r, "channel queue", nodes)
		}
	}
	nb := r.Count("inboxes")
	img.Inbox = make([][]network.MessageImage, nb)
	for i := range img.Inbox {
		img.Inbox[i] = decodeMsgs(r, "inbox", nodes)
	}
	return img
}

func encodeMsgs(w *snapshot.Writer, ms []network.MessageImage) {
	w.Count(len(ms))
	for i := range ms {
		m := &ms[i]
		w.Int(m.Src)
		w.Int(m.Dst)
		w.Int(m.Size)
		w.U8(uint8(m.Payload.Kind))
		encodeCohMsg(w, m.Payload.Coh)
		w.U64(m.Payload.Word)
		w.U64(m.SentAt)
		w.U64(m.ArriveAt)
		w.Ints(m.Route)
		w.Int(m.Hop)
	}
}

func decodeMsgs(r *snapshot.Reader, what string, nodes int) []network.MessageImage {
	n := r.Count(what)
	if n == 0 {
		return nil
	}
	ms := make([]network.MessageImage, n)
	for i := range ms {
		m := &ms[i]
		m.Src = r.Int()
		m.Dst = r.Int()
		m.Size = r.Int()
		m.Payload.Kind = network.PayloadKind(r.U8())
		m.Payload.Coh = decodeCohMsg(r, nodes)
		m.Payload.Word = r.U64()
		m.SentAt = r.U64()
		m.ArriveAt = r.U64()
		m.Route = r.Ints("route")
		m.Hop = r.Int()
	}
	return ms
}

func encodeCohMsg(w *snapshot.Writer, m directory.Msg) {
	w.U8(uint8(m.Kind))
	w.U32(m.Block)
	w.Int(m.From)
	w.Int(m.Requester)
	w.Bool(m.Write)
}

// decodeCohMsg reads a protocol message between two of nodes nodes.
func decodeCohMsg(r *snapshot.Reader, nodes int) directory.Msg {
	var m directory.Msg
	m.Kind = directory.MsgKind(r.U8())
	m.Block = r.U32()
	m.From = decodeNodeID(r, nodes)
	m.Requester = decodeNodeID(r, nodes)
	m.Write = r.Bool()
	if m.Kind > directory.FlushAck {
		r.Corrupt("coherence message of kind %d", m.Kind)
	}
	return m
}

// decodeNodeID reads a node id and range-checks it: ids index per-node
// tables on the first cycle after restore.
func decodeNodeID(r *snapshot.Reader, nodes int) int {
	id := r.Int()
	if id < 0 || id >= nodes {
		r.Corrupt("node id %d of %d nodes", id, nodes)
		return 0
	}
	return id
}

// encodeCtl writes one controller, listing sharers through members (a
// scratch buffer it returns for the next controller).
func encodeCtl(w *snapshot.Writer, c *cacheCtl, members []int) []int {
	cacheFs, dirFs, ctlFs := ctlCounterFields(c)
	// Cache arrays: the valid lines with their slots, plus the LRU clock
	// and counters. An Invalid slot's stale block and lru are never read
	// (find skips it, Insert takes it before comparing any lru).
	sets, ways := c.cache.Geometry()
	w.Int(sets)
	w.Int(ways)
	w.U64(c.cache.Clock())
	putU64s(w, cacheFs)
	w.Count(c.cache.Occupancy())
	c.cache.ForEach(func(slot int, block uint32, st cache.State, dirty bool, lru uint64) {
		w.U32(uint32(slot))
		w.U32(block)
		w.U8(uint8(st))
		w.Bool(dirty)
		w.U64(lru)
	})

	// Directory entries, ascending block.
	putU64s(w, dirFs)
	w.Count(c.dir.Entries())
	c.dir.DumpEntries(func(block uint32, e *directory.Entry) {
		w.U32(block)
		w.U8(uint8(e.State))
		w.Int(e.Owner)
		members = e.Sharers.AppendMembers(members[:0], -1)
		w.Ints(members)
	})

	// Outstanding misses, sorted by block.
	w.Count(len(c.pending))
	for _, block := range sortedKeys(c.pending) {
		ms := c.pending[block]
		w.U32(block)
		w.Bool(ms.write)
		w.U64(ms.start)
		w.Bool(ms.poisoned)
	}

	// Home transactions, sorted by block.
	w.Count(len(c.homeTx))
	for _, block := range sortedKeys(c.homeTx) {
		tx := c.homeTx[block]
		w.U32(block)
		w.Bool(tx.write)
		w.Int(tx.requester)
		w.Int(tx.acksLeft)
		w.Count(len(tx.queued))
		for _, msg := range tx.queued {
			encodeCohMsg(w, msg)
		}
	}

	// Output queue and deferred recalls, in order.
	w.Count(len(c.outbox))
	for _, om := range c.outbox {
		encodeCohMsg(w, om.msg)
		w.Int(om.dst)
		w.U64(om.readyAt)
	}
	w.Count(len(c.recallQ))
	for _, pr := range c.recallQ {
		encodeCohMsg(w, pr.msg)
		w.U64(pr.deadline)
	}

	w.Int(c.fence)
	w.Count(len(c.locked))
	for _, block := range sortedKeys(c.locked) {
		w.U32(block)
		w.U64(c.locked[block])
	}
	w.U64(c.replySeq)
	putU64s(w, ctlFs)
	return members
}

// dirEntryMinBytes is an encoded directory entry with no sharers:
// block, state, owner and the sharer count.
const dirEntryMinBytes = 4 + 1 + 8 + 4

func decodeCtl(r *snapshot.Reader, c *cacheCtl) {
	cacheFs, dirFs, ctlFs := ctlCounterFields(c)
	sets, ways := c.cache.Geometry()
	isets := r.Int()
	iways := r.Int()
	if r.Err() != nil {
		return
	}
	if isets != sets || iways != ways {
		r.Corrupt("image cache geometry %d×%d, machine has %d×%d", isets, iways, sets, ways)
		return
	}
	c.cache.SetClock(r.U64())
	getU64s(r, cacheFs)
	for n := r.CountAtMost("cache lines", sets*ways); n > 0; n-- {
		slot := int(r.U32())
		block := r.U32()
		st := cache.State(r.U8())
		dirty := r.Bool()
		lru := r.U64()
		if r.Err() != nil {
			return
		}
		if st == cache.Invalid {
			r.Corrupt("cache slot %d encoded as invalid", slot)
			return
		}
		// SetSlot bounds the slot: one past the geometry fails.
		if err := c.cache.SetSlot(slot, block, st, dirty, lru); err != nil {
			r.Corrupt("%v", err)
			return
		}
	}

	getU64s(r, dirFs)
	nodes := len(c.fabric.ctls)
	// The table is sized once for the image's entries; the bound keeps a
	// hostile count from sizing it past what the payload can hold.
	nent := r.CountAtMost("directory entries", r.Remaining()/dirEntryMinBytes)
	c.dir.Reserve(nent)
	for i := 0; i < nent; i++ {
		block := r.U32()
		st := directory.State(r.U8())
		owner := r.Int()
		nsh := r.CountAtMost("sharers", nodes)
		if r.Err() != nil {
			return
		}
		if st > directory.Exclusive {
			r.Corrupt("directory entry %#x has invalid state %d", block, st)
			return
		}
		if owner < -1 || owner >= nodes {
			r.Corrupt("directory entry %#x has owner %d of %d nodes", block, owner, nodes)
			return
		}
		e := c.dir.Entry(block)
		e.State = st
		e.Owner = owner
		for ; nsh > 0; nsh-- {
			id := r.Int()
			if r.Err() != nil {
				return
			}
			if id < 0 || id >= nodes {
				r.Corrupt("directory entry %#x has sharer %d of %d nodes", block, id, nodes)
				return
			}
			e.Sharers.Add(id)
		}
	}

	npend := r.Count("pending misses")
	c.pending = make(map[uint32]missState, npend)
	for i := 0; i < npend; i++ {
		block := r.U32()
		var ms missState
		ms.write = r.Bool()
		ms.start = r.U64()
		ms.poisoned = r.Bool()
		c.pending[block] = ms
	}

	ntx := r.Count("home transactions")
	c.homeTx = make(map[uint32]*homeTx, ntx)
	for i := 0; i < ntx; i++ {
		block := r.U32()
		tx := &homeTx{}
		tx.write = r.Bool()
		tx.requester = decodeNodeID(r, nodes)
		tx.acksLeft = r.Int()
		nq := r.Count("queued requests")
		for j := 0; j < nq; j++ {
			tx.queued = append(tx.queued, decodeCohMsg(r, nodes))
		}
		if r.Err() != nil {
			return
		}
		c.homeTx[block] = tx
	}

	nout := r.Count("outbox")
	c.outbox = c.outbox[:0]
	for i := 0; i < nout; i++ {
		var om outMsg
		om.msg = decodeCohMsg(r, nodes)
		om.dst = decodeNodeID(r, nodes)
		om.readyAt = r.U64()
		c.outbox = append(c.outbox, om)
	}
	nrec := r.Count("recall queue")
	c.recallQ = c.recallQ[:0]
	for i := 0; i < nrec; i++ {
		var pr pendingRecall
		pr.msg = decodeCohMsg(r, nodes)
		pr.deadline = r.U64()
		c.recallQ = append(c.recallQ, pr)
	}

	c.fence = r.Int()
	nlock := r.Count("locked blocks")
	c.locked = make(map[uint32]uint64, nlock)
	for i := 0; i < nlock; i++ {
		block := r.U32()
		c.locked[block] = r.U64()
		// The line's interlock flag is derived state (see install): not
		// in the image, rebuilt here.
		if ln, ok := c.cache.Find(block); ok {
			ln.SetLocked(true)
		}
	}
	c.replySeq = r.U64()
	getU64s(r, ctlFs)
}

// sortedKeys returns a map's uint32 keys ascending (deterministic
// encode order for map-backed controller state).
func sortedKeys[V any](m map[uint32]V) []uint32 {
	ks := make([]uint32, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

// ---------------------------------------------------------------------------
// Observability cursors (contents are host-side; see package comment)
// ---------------------------------------------------------------------------

func (m *Machine) encodeCursors(w *snapshot.Writer) {
	w.Bool(m.tracer != nil)
	if m.tracer != nil {
		w.Count(m.tracer.Nodes())
		for i := 0; i < m.tracer.Nodes(); i++ {
			w.U64(m.tracer.Node(i).Cursor())
		}
	}
	w.Bool(m.sampler != nil)
	if m.sampler != nil {
		w.U64(m.sampler.NextBoundary())
		w.Count(len(m.lastSample))
		for i := range m.lastSample {
			putU64s(w, procStatFields(&m.lastSample[i]))
		}
	}
}

func (m *Machine) decodeCursors(r *snapshot.Reader) {
	if r.Bool() {
		n := r.Count("trace cursors")
		for i := 0; i < n; i++ {
			cur := r.U64()
			if m.tracer != nil && i < m.tracer.Nodes() {
				m.tracer.Node(i).SetCursor(cur)
			}
		}
	}
	if r.Bool() {
		next := r.U64()
		n := r.Count("sample baselines")
		for i := 0; i < n; i++ {
			var s proc.Stats
			getU64s(r, procStatFields(&s))
			if m.sampler != nil && i < len(m.lastSample) {
				m.lastSample[i] = s
			}
		}
		if m.sampler != nil {
			m.sampler.SetNextBoundary(next)
		}
	}
}
