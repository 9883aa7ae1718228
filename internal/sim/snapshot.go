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
// Layout: most of the image is records — identity, rts.SchedImage,
// nodeImage, network.Image, the cache and directory counters and
// ctlState — that snapshot.Put and snapshot.Get walk as their fields in
// declaration order, by the rules in internal/snapshot/codec.go.
// Reordering, adding, removing or retyping a field of a walked record
// changes the format and needs a snapshot.Version bump
// (TestSnapshotImageBytes pins the bytes). What is not a record is
// written by hand below: the program, resident pages, valid cache
// lines, directory entries, trace and sampler cursors, and the
// busy-remaining canonicalization. TestSnapshotFieldsClassified holds
// every field of the machine's state-holding types to one of three
// classes: inside a walked record, written by a hand-written section,
// or host bookkeeping with the reason it is not saved.
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

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"april/internal/cache"
	"april/internal/calendar"
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
	id := m.encodeImage(w)
	return w.Seal(snapshot.Hash(w.Bytes()[:id]), m.now), nil
}

// encodeImage writes the machine's payload into w, from its start, and
// returns the length of the payload's identity section. Snapshot seals
// it into a fresh buffer; Diverge compares payloads in a writer per
// side that it reuses at every boundary, so comparing allocates nothing
// once the writers have grown to an image.
func (m *Machine) encodeImage(w *snapshot.Writer) (id int) {
	w.Reset()
	m.encodeIdentity(w)
	id = w.Len()
	m.encodeState(w)
	return id
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

// identity is the machine-defining part of Config, a record of the
// image. The program follows it.
type identity struct {
	Nodes          int
	Profile        rts.Profile
	Lazy           bool
	MemoryBytes    uint32
	MaxCycles      uint64
	DeadlockWindow uint64
	SabotageCycle  uint64
	Alewife        *AlewifeConfig
	Faults         *fault.Config
}

func (m *Machine) encodeIdentity(w *snapshot.Writer) {
	c := &m.Cfg
	w.Enter("identity", -1)
	defer w.Leave()
	snapshot.Put(w, &identity{
		Nodes: c.Nodes, Profile: c.Profile, Lazy: c.Lazy, MemoryBytes: c.MemoryBytes,
		MaxCycles: c.MaxCycles, DeadlockWindow: c.DeadlockWindow, SabotageCycle: c.SabotageCycle,
		Alewife: c.Alewife, Faults: c.Faults,
	})

	prog := m.Nodes[0].Proc.Prog
	w.Field("program", 1).U32(prog.Entry)
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
	var id identity
	snapshot.Get(r, &id)
	cfg := Config{
		Nodes: id.Nodes, Profile: id.Profile, Lazy: id.Lazy, MemoryBytes: id.MemoryBytes,
		MaxCycles: id.MaxCycles, DeadlockWindow: id.DeadlockWindow, SabotageCycle: id.SabotageCycle,
		Alewife: id.Alewife, Faults: id.Faults,
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

// ===========================================================================
// State: everything after the identity section.
// ===========================================================================

func (m *Machine) encodeState(w *snapshot.Writer) {
	w.Field("now", 8).U64(m.now)
	w.Field("lastProgress", 8).U64(m.lastProgress)
	// The checkers' watermark is host bookkeeping (Check is a host
	// knob): every image holds New's value in its slot. The livelock
	// scan's is written as the reference loop holds it: a loop that
	// crossed it without landing has not moved it yet.
	w.Field("nextSchedCheck", 8).U64(schedCheckInterval)
	wedge := m.nextWedgeCheck
	if m.net != nil && wedge <= m.now {
		wedge = nextWatch(m.now, wedgeInterval)
	}
	w.Field("nextWedgeCheck", 8).U64(wedge)

	sched := m.Sched.DumpState()
	snapshot.PutIn(w, "sched", -1, &sched)

	rem := m.busyRemaining()
	img := new(nodeImage) // one for every node: its IPI buffer is reused
	for i, n := range m.Nodes {
		img.fill(n, rem[i])
		snapshot.PutIn(w, "node", i, img)
	}

	m.encodeMemory(w)

	w.Field("fabric", 1).Bool(m.net != nil)
	if m.net != nil {
		m.encodeFabric(w)
	}

	m.encodeCursors(w)
}

func (m *Machine) decodeState(r *snapshot.Reader) error {
	m.now = r.U64()
	m.lastProgress = r.U64()
	r.U64() // the checkers' watermark slot
	m.nextSchedCheck = nextWatch(m.now, schedCheckInterval)
	m.nextWedgeCheck = r.U64()

	var sched rts.SchedImage
	snapshot.Get(r, &sched)
	if r.Err() == nil {
		if err := m.Sched.RestoreState(sched); err != nil {
			r.Corrupt("%v", err)
		}
	}

	rem := make([]uint64, len(m.Nodes))
	img := new(nodeImage) // decoded into again for every node
	for i, n := range m.Nodes {
		snapshot.Get(r, img)
		if r.Err() != nil {
			break
		}
		if err := m.installNode(n, img); err != nil {
			r.Corrupt("node %d: %v", i, err)
			break
		}
		rem[i] = img.Rem
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
	// snapshot can never be taken in between). The sabotage mutated
	// scheduler state already restored above — only mark it fired. The
	// wedge mutates the host-side fault plan, which New rebuilt
	// pristine; it stays pending, and the resumed run's first
	// runEventful slice, empty because the wedge is overdue, arms it
	// before any cycle executes.
	m.sabotaged = m.Cfg.SabotageCycle > 0 && m.now >= m.Cfg.SabotageCycle
	return nil
}

// busyRemaining canonicalizes per-node occupancy: how many cycles
// until each node next Steps. The reference loop keeps it as relative
// busy counters; the work-proportional loop keeps absolute wake cycles
// in the wake calendar (0 remaining = filed at a cycle the clock has
// reached, or not filed: a node the run's final cycle did not reach).
// The canonical form restores into either representation.
func (m *Machine) busyRemaining() []uint64 {
	rem := make([]uint64, len(m.Nodes))
	if m.Cfg.Tier == TierReference {
		for i, n := range m.Nodes {
			rem[i] = uint64(n.busy)
		}
		return rem
	}
	m.wake.Each(func(at uint64, id int) {
		if at > m.now {
			rem[id] = at - m.now
		}
	})
	// A parked node is settled whenever a run loop returns, so its next
	// uncharged poll is the next Step the reference loop would take.
	for i, at := range m.park.next {
		if at != calendar.None && at > m.now {
			rem[i] = at - m.now
		}
	}
	return rem
}

// rebuildRunLists installs canonical per-node remaining-busy values
// into the target loop's representation: every node is filed in the
// wake calendar at the cycle it next steps. No node is parked: New
// builds the park set empty, and Restore calls this on a machine New
// just built.
func (m *Machine) rebuildRunLists(rem []uint64) {
	if m.Cfg.Tier == TierReference {
		for i, n := range m.Nodes {
			n.busy = int(rem[i])
		}
		return
	}
	m.wake.Init(len(m.Nodes))
	for i := range m.Nodes {
		m.wake.Add(m.now, m.now+rem[i], i)
	}
}

// ---------------------------------------------------------------------------
// Nodes: engine, processor, IO controller, runtime trackers
// ---------------------------------------------------------------------------

// nodeImage is one node's state, a record of the image.
type nodeImage struct {
	Rem         uint64 // cycles until the node next steps (busyRemaining)
	LastRetired uint64
	FP          int
	Switches    uint64
	Frames      []core.Frame
	Globals     [isa.NumGlobalRegs]isa.Word
	Halted      bool
	Stats       proc.Stats
	Kinds       [isa.NumMicroKinds]uint64
	IPIs        []isa.Word // undelivered, oldest first
	IO          ioState
	// Arena is the node's private allocation chunk (futures, cons
	// cells): its cursor decides every future address the node hands
	// out next.
	Arena mem.Arena
	Stuck *[]rts.StuckImage // nil until the node first tracks a retry
}

// fill captures node n, reusing img's IPI buffer. The frames and the
// retry trackers are n's own, read until the next fill.
func (img *nodeImage) fill(n *Node, rem uint64) {
	p, e := n.Proc, n.Proc.Engine
	*img = nodeImage{
		Rem: rem, LastRetired: n.lastRetired,
		FP: e.FP(), Switches: e.Switches, Frames: e.Frames, Globals: e.Globals,
		Halted: p.Halted, Stats: p.Stats, Kinds: p.Kinds, IPIs: p.DumpIPIs(img.IPIs[:0]),
		IO: p.IO.(*ioCtl).ioState, Arena: *n.RT.Heap.Arena, Stuck: n.RT.DumpStuck(),
	}
}

// installNode installs a decoded node, refusing one that would index
// past the node's frames or the machine's nodes and threads.
func (m *Machine) installNode(n *Node, img *nodeImage) error {
	p, e := n.Proc, n.Proc.Engine
	nframes, threads := len(e.Frames), m.Sched.NumThreads()
	switch {
	case len(img.Frames) != nframes:
		return fmt.Errorf("image has %d frames, engine has %d", len(img.Frames), nframes)
	case img.FP < 0 || img.FP >= nframes:
		return fmt.Errorf("frame pointer %d out of %d frames", img.FP, nframes)
	case !isNode(img.IO.ipiTarget, len(m.Nodes)):
		return fmt.Errorf("IPI target %d of %d nodes", img.IO.ipiTarget, len(m.Nodes))
	case img.Stuck != nil && len(*img.Stuck) != nframes:
		return fmt.Errorf("%d retry trackers for %d frames", len(*img.Stuck), nframes)
	}
	for i, f := range img.Frames {
		if f.ThreadID >= threads {
			return fmt.Errorf("frame %d holds thread %d of %d", i, f.ThreadID, threads)
		}
	}
	n.lastRetired = img.LastRetired
	e.SetFP(img.FP)
	e.Switches = img.Switches
	copy(e.Frames, img.Frames)
	e.Globals = img.Globals
	p.Halted = img.Halted
	p.Stats = img.Stats
	p.Kinds = img.Kinds
	p.RestoreIPIs(img.IPIs)
	p.IO.(*ioCtl).ioState = img.IO
	*n.RT.Heap.Arena = img.Arena
	n.RT.RestoreStuck(img.Stuck)
	return nil
}

// isNode reports whether id names one of nodes nodes: decoded ids
// index per-node tables on the first cycle after restore.
func isNode(id, nodes int) bool { return id >= 0 && id < nodes }

// ---------------------------------------------------------------------------
// Memory: resident pages only, exact residency
// ---------------------------------------------------------------------------

func (m *Machine) encodeMemory(w *snapshot.Writer) {
	w.Field("memory size", 4).U32(m.Mem.Size())
	w.Field("pages", 4).Count(m.Mem.Resident())
	m.Mem.DumpResident(func(id uint32, words *[mem.PageWords]isa.Word, fe *[mem.PageFEWords]uint64) {
		w.Enter("page", int(id))
		w.Field("id", 4).U32(id)
		w.Field("words", 4)
		snapshot.PutWords(w, words[:])
		w.Field("fe", 8)
		for _, b := range fe {
			w.U64(b)
		}
		w.Leave()
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
	w.Field("fabric now", 8).U64(f.now)
	w.Field("network kind", 1).U8(netKind(f.net))
	img := f.net.(netBackend).DumpImage()
	snapshot.PutIn(w, "network", -1, &img)
	w.Field("controllers", 4).Count(len(f.ctls))
	var members []int // one sharer-list buffer for every directory entry
	for i, ctl := range f.ctls {
		w.Enter("node", i)
		members = encodeCtl(w, ctl, members)
		w.Leave()
	}
}

func (m *Machine) decodeFabric(r *snapshot.Reader) {
	f := m.net
	f.now = r.U64()
	kind := r.U8()
	var img network.Image
	snapshot.Get(r, &img)
	if r.Err() != nil {
		return
	}
	nodes := len(f.ctls)
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
	if nctl := r.Count("controllers"); r.Err() == nil && nctl != nodes {
		r.Corrupt("image has %d controllers, machine has %d", nctl, nodes)
	}
	for _, ctl := range f.ctls {
		decodeCtl(r, ctl)
		if r.Err() != nil {
			return
		}
		// The calendar is host bookkeeping: rebuild it from the
		// simulated state it tracks, by send's and processRecalls'
		// rules.
		for i := range ctl.outbox {
			f.wakeAt(ctl.node, ctl.outbox[i].readyAt)
		}
		ctl.fileRecalls()
	}
}

// checkMsg refuses a protocol message no machine of nodes nodes sends.
func checkMsg(r *snapshot.Reader, m *directory.Msg, nodes int) {
	if !m.Valid(nodes) {
		r.Corrupt("coherence message %+v on %d nodes", *m, nodes)
	}
}

// encodeCtl writes one controller, listing sharers through members (a
// scratch buffer it returns for the next controller).
func encodeCtl(w *snapshot.Writer, c *cacheCtl, members []int) []int {
	// Cache arrays: the valid lines with their slots and LRU stamps,
	// plus the counters. An Invalid slot holds stamp 0 and is never
	// read otherwise, so a restore that leaves it empty is exact.
	sets, ways := c.cache.Geometry()
	w.Enter("cache", -1)
	w.Field("geometry", 8).Int(sets)
	w.Int(ways)
	snapshot.Put(w, &c.cache.Stats)
	w.Field("lines", 4).Count(c.cache.Occupancy())
	c.cache.ForEach(func(slot int, block uint32, st cache.State, dirty bool, lru uint64) {
		w.Enter("set", slot/ways)
		w.Enter("way", slot%ways)
		w.Field("slot", 4).U32(uint32(slot))
		w.Field("block", 4).U32(block)
		w.Field("state", 1).U8(uint8(st))
		w.Field("dirty", 1).Bool(dirty)
		w.Field("lru", 8).U64(lru)
		w.Leave()
		w.Leave()
	})
	w.Leave()

	// Directory entries, ascending block.
	w.Enter("directory", -1)
	snapshot.Put(w, &c.dir.Stats)
	w.Field("entries", 4).Count(c.dir.Entries())
	c.dir.DumpEntries(func(block uint32, e *directory.Entry) {
		w.Enter("block", int(block))
		w.Field("block", 4).U32(block)
		w.Field("state", 1).U8(uint8(e.State))
		w.Field("owner", 8).Int(int(e.Owner))
		members = e.Sharers.AppendMembers(members[:0], -1)
		w.Field("sharers len", 4).Count(len(members))
		w.Field("sharers", 8)
		for _, id := range members {
			w.Int(id)
		}
		w.Leave()
	})
	w.Leave()

	snapshot.PutIn(w, "ctl", -1, &c.ctlState)
	return members
}

// dirEntryMinBytes is an encoded directory entry with no sharers:
// block, state, owner and the sharer count.
const dirEntryMinBytes = 4 + 1 + 8 + 4

func decodeCtl(r *snapshot.Reader, c *cacheCtl) {
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
	snapshot.Get(r, &c.cache.Stats)
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

	snapshot.Get(r, &c.dir.Stats)
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
		if block == ^uint32(0) {
			r.Corrupt("directory entry for block %#x, which no address reaches", block)
			return
		}
		if owner < -1 || owner >= nodes {
			r.Corrupt("directory entry %#x has owner %d of %d nodes", block, owner, nodes)
			return
		}
		e := c.dir.Entry(block)
		e.State = st
		e.Owner = int32(owner)
		for ; nsh > 0; nsh-- {
			id := r.Int()
			if r.Err() != nil {
				return
			}
			if !isNode(id, nodes) {
				r.Corrupt("directory entry %#x has sharer %d of %d nodes", block, id, nodes)
				return
			}
			e.Sharers.Add(id)
		}
	}

	snapshot.Get(r, &c.ctlState)
	if r.Err() != nil {
		return
	}
	for _, tx := range c.homeTx {
		if !isNode(tx.requester, nodes) {
			r.Corrupt("home transaction for node %d of %d", tx.requester, nodes)
		}
		for i := range tx.queued {
			checkMsg(r, &tx.queued[i], nodes)
		}
	}
	for i := range c.outbox {
		checkMsg(r, &c.outbox[i].msg, nodes)
		if !isNode(c.outbox[i].dst, nodes) {
			r.Corrupt("outbox message to node %d of %d", c.outbox[i].dst, nodes)
		}
	}
	for i := range c.recallQ {
		checkMsg(r, &c.recallQ[i].msg, nodes)
	}
	// A line's interlock flag is derived state (see install): not in
	// the image, rebuilt here.
	for block := range c.locked {
		if ln, ok := c.cache.Find(block); ok {
			ln.SetLocked(true)
		}
	}
}

// ---------------------------------------------------------------------------
// Observability cursors: trace ring contents and sampler rows are
// host-side flight-recorder windows, but the rings' event counters and
// the sampler's window boundary and baselines continue from the image.
// ---------------------------------------------------------------------------

func (m *Machine) encodeCursors(w *snapshot.Writer) {
	w.Field("tracer", 1).Bool(m.tracer != nil)
	if m.tracer != nil {
		w.Field("trace nodes", 4).Count(m.tracer.Nodes())
		w.Field("trace cursors", 8)
		for i := 0; i < m.tracer.Nodes(); i++ {
			w.U64(m.tracer.Node(i).Cursor())
		}
	}
	w.Field("sampler", 1).Bool(m.sampler != nil)
	if m.sampler != nil {
		w.Field("next sample", 8).U64(m.sampler.NextBoundary())
		snapshot.PutIn(w, "last sample", -1, &m.lastSample)
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
		var last []proc.Stats
		snapshot.Get(r, &last)
		if m.sampler != nil {
			copy(m.lastSample, last)
			m.sampler.SetNextBoundary(next)
		}
	}
}
