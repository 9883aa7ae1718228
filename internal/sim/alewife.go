package sim

import (
	"fmt"
	"math/bits"
	"slices"

	"april/internal/cache"
	"april/internal/calendar"
	"april/internal/directory"
	"april/internal/fault"
	"april/internal/isa"
	"april/internal/mem"
	"april/internal/network"
	"april/internal/proc"
	"april/internal/trace"
)

// AlewifeConfig enables the full ALEWIFE memory system: per-node
// caches kept strongly coherent by full-map directories over the
// packet-switched network. Remote misses trap the processor (forcing a
// context switch); local misses hold it for the memory latency
// (Section 2.1).
type AlewifeConfig struct {
	Cache      cache.Config     // zero value -> Table 4 default (64 KB, 16 B blocks)
	MemLatency int              // DRAM access, default 10 cycles (Table 4)
	Geometry   network.Geometry // zero -> fitted: a cube, a square, or a ring of up to 64 nodes
	IdealNet   bool             // constant-latency network instead of the torus
	IdealLat   int              // one-way latency for IdealNet

	// PollCycles is the MHOLD retry interval for wait-on-miss flavors.
	PollCycles int
}

// maxDerivedRing is the longest ring fill derives from a node count
// alone. A count that is neither a cube nor a square gets a ring, and
// a long ring's hop counts make a run orders of magnitude slower than
// the nearest cube's: queens 8 took 13.05M cycles on 6000 nodes,
// against 132,515 on 5832 (an 18-ary 3-cube).
const maxDerivedRing = 64

func (a *AlewifeConfig) fill(nodes int) error {
	if a.Cache == (cache.Config{}) {
		a.Cache = cache.DefaultConfig()
	}
	if err := a.Cache.Validate(); err != nil {
		return err
	}
	if a.Cache.SizeBytes > maxCacheBytes {
		return fmt.Errorf("sim: %d-byte cache, at most %d", a.Cache.SizeBytes, maxCacheBytes)
	}
	if a.MemLatency <= 0 {
		a.MemLatency = 10
	}
	if a.Geometry == (network.Geometry{}) {
		a.Geometry = network.FitGeometry(nodes)
		if g := a.Geometry; g.Dim == 1 && g.Radix > maxDerivedRing {
			k := network.Root(nodes, 3)
			return fmt.Errorf("sim: %d nodes make no cube or square, and a ring of more than %d nodes is too slow to be meant: use %d or %d nodes, or set AlewifeConfig.Geometry",
				nodes, maxDerivedRing, k*k*k, (k+1)*(k+1)*(k+1))
		}
	}
	g := a.Geometry
	if g.Dim < 1 || g.Dim > maxTorusDim || g.Radix < 1 || g.Radix > maxNodes {
		return fmt.Errorf("sim: geometry %+v out of range", g)
	}
	for covered, d := 1, 0; d < g.Dim; d++ {
		// At most maxNodes squared: the running product cannot wrap.
		if covered *= g.Radix; covered > maxNodes {
			return fmt.Errorf("sim: geometry %+v has more than %d nodes", g, maxNodes)
		}
	}
	if a.Geometry.Nodes() < nodes {
		return fmt.Errorf("sim: geometry %+v covers %d nodes, need %d", a.Geometry, a.Geometry.Nodes(), nodes)
	}
	if a.IdealLat <= 0 {
		a.IdealLat = 10
	}
	if a.PollCycles <= 0 {
		a.PollCycles = 4
	}
	return nil
}

// netFabric owns the interconnect and the per-node cache controllers.
//
// The fabric is work-proportional on the host: a controller runs in a
// tick only when it is filed in cal for that tick's pass, and its
// deliveries are drained only when the network reports them. A
// controller is filed at the readyAt of each delayed send, for the
// next pass when a message it handles leaves a recall waiting or a hit
// releases the interlock a recall waits on, and, while recalls wait, at
// the earliest cycle one can act by the clock (fileRecalls). Due hands
// a pass's ids back in ascending node id, which makes the skip
// invisible to simulated behavior: a dense scan's per-controller work
// is a no-op at every cycle the controller is not visited
// (dense_test.go keeps that scan as the oracle).
type netFabric struct {
	cfg   *AlewifeConfig
	net   network.Network
	ctls  []*cacheCtl
	dist  mem.Distribution
	now   uint64
	trace *trace.Tracer

	// cal files every controller with work at the pass that runs it:
	// each outbox entry's readyAt, and each waiting recall's horizon.
	// draining is set while tick drains deliveries, whose handlers file
	// their controller for this tick's pass; outside that a filing
	// lands no earlier than the next tick.
	cal      calendar.Calendar
	draining bool
	pendBuf  []int              // PendingNodes scratch, reused
	delivBuf []*network.Message // Deliveries scratch, reused

	// plan perturbs timing (directory-reply delays here; the network
	// draws its own penalties) and check records invariant violations.
	// Both nil by default; clean runs take one nil test per hook.
	plan  *fault.Plan
	check *fault.Checker

	// laneHook, when the epoch engine runs ALEWIFE lanes, is told
	// before a controller fills block into its own cache (Insert) or
	// recalls it (Invalidate or downgrade). See Machine.laneFabric.
	laneHook func(node int, block uint32)
}

// wakeAt files node's controller for the first pass at or after cycle
// at.
func (f *netFabric) wakeAt(node int, at uint64) {
	next := f.now + 1
	if f.draining {
		next = f.now
	}
	f.cal.Add(f.now, max(at, next), node)
}

func (m *Machine) initAlewife() error {
	cfg := m.Cfg.Alewife // filled by Config.fill
	var net network.Network
	if cfg.IdealNet {
		net = network.NewIdeal(cfg.Geometry.Nodes(), cfg.IdealLat)
	} else {
		t, err := network.NewTorus(cfg.Geometry)
		if err != nil {
			return err
		}
		net = t
	}
	net.SetFaultPlan(m.plan)
	f := &netFabric{
		cfg:   cfg,
		net:   net,
		dist:  mem.Distribution{Nodes: m.Cfg.Nodes, BlockSize: cfg.Cache.BlockBytes},
		plan:  m.plan,
		check: m.checker,
	}
	f.cal.Init(m.Cfg.Nodes)
	m.net = f
	return nil
}

func (m *Machine) newCachePort(node int) proc.MemPort {
	f := m.net
	c, err := cache.New(f.cfg.Cache)
	if err != nil {
		panic(err) // config validated by Config.fill
	}
	prof := m.Cfg.Profile
	ctl := &cacheCtl{
		node:       node,
		fabric:     f,
		mem:        m.Mem,
		blockShift: uint(bits.TrailingZeros32(f.cfg.Cache.BlockBytes)),
		cache:      c,
		dir:        directory.New(),
		lockWindow: uint64(4*prof.Frames*(prof.SwitchCycles+prof.TrapEntry) + 64),
		ctlState: ctlState{
			pending: map[uint32]missState{},
			homeTx:  map[uint32]homeTx{},
			locked:  map[uint32]uint64{},
		},
	}
	f.ctls = append(f.ctls, ctl)
	return ctl
}

// tick advances the interconnect one cycle and runs the controllers'
// message handling.
func (f *netFabric) tick() {
	f.tickInner()
	if f.check != nil {
		f.checkPool()
	}
}

func (f *netFabric) tickInner() {
	f.now++
	f.net.Tick()
	f.draining = true
	f.pendBuf = f.net.PendingNodes(f.pendBuf[:0])
	for _, node := range f.pendBuf {
		f.drainInto(node, f.ctls[node])
	}
	f.draining = false
	// The pass: the controllers filed for this cycle, in ascending node
	// id — the reference all-controllers order. Work they make files
	// them again, for a later pass.
	for _, id := range f.cal.Due(f.now) {
		ctl := f.ctls[id]
		ctl.processRecalls()
		ctl.flushOutbox()
	}
}

// drainInto is the consumer loop for one node's deliveries: the typed
// coherence payloads are copied out by value into the handler, then the
// whole batch is recycled — the explicit recycle point after which no
// *Message from this drain may be touched.
func (f *netFabric) drainInto(node int, ctl *cacheCtl) {
	buf := f.net.Deliveries(node, f.delivBuf[:0])
	for _, nm := range buf {
		ctl.handle(nm.Payload.Coh)
	}
	f.net.Recycle(buf)
	f.delivBuf = buf[:0]
}

// nextEvent returns the earliest fabric cycle at which a tick could do
// any work — deliver a network message, or run a filed controller — or
// network.NoEvent when the whole memory system is quiescent. Ticks that
// end strictly before that cycle are guaranteed no-ops, which is the
// invariant Machine.Run's fast-forward path relies on. The estimate is
// conservative: a controller filed where it then finds nothing to do
// costs one no-op pass, but no filing is later than a real event.
func (f *netFabric) nextEvent() uint64 {
	return min(f.net.NextEvent(), f.cal.Next(f.now))
}

// advance replays k guaranteed-no-op ticks in one step: the fabric and
// network clocks move forward, and nothing else can change (the caller
// established now+k < nextEvent()).
func (f *netFabric) advance(k uint64) {
	f.now += k
	f.net.Advance(k)
}

// missState tracks a requester-side outstanding transaction.
type missState struct {
	write bool
	start uint64

	// poisoned marks that a recall (Inv/Fetch) arrived while this miss
	// was outstanding. The recall may have crossed our grant in the
	// network, so the arriving Data/DataEx is stale and must be
	// dropped (the access re-requests). Without this a crossing recall
	// leaves two exclusive copies; acknowledging it immediately (rather
	// than deferring) avoids deadlock when our own request is still
	// queued at the home behind the recalling transaction.
	poisoned bool
}

// homeTx tracks a home-side multi-party transaction. The table holds
// transactions by value; a completed one's queued-request buffer
// returns to the controller's freelist, so the steady state reuses the
// capacity.
type homeTx struct {
	write     bool
	requester int
	acksLeft  int
	queued    []directory.Msg
}

func (c *cacheCtl) newTx(write bool, requester, acksLeft int) homeTx {
	tx := homeTx{write: write, requester: requester, acksLeft: acksLeft}
	if n := len(c.queuedFree); n > 0 {
		tx.queued = c.queuedFree[n-1]
		c.queuedFree = c.queuedFree[:n-1]
	}
	return tx
}

func (c *cacheCtl) freeTx(tx homeTx) {
	if cap(tx.queued) > 0 {
		c.queuedFree = append(c.queuedFree, tx.queued[:0])
	}
}

// CtlStats aggregates one controller's behavior.
type CtlStats struct {
	LocalMisses   uint64 `counter:"local_misses"`
	RemoteMisses  uint64 `counter:"remote_misses"`
	RemoteLatency uint64 `counter:"remote_latency_sum"` // summed cycles from request to data arrival
	Upgrades      uint64 `counter:"upgrades"`
}

// cacheCtl is the per-node cache and directory controller; it
// implements proc.MemPort.
type cacheCtl struct {
	node       int
	fabric     *netFabric
	mem        *mem.Memory
	blockShift uint // log2 of the block size (validated a power of two)
	cache      *cache.Cache
	dir        *directory.Directory
	lockWindow uint64 // see ctlState.locked

	ctlState

	queuedFree  [][]directory.Msg // retired homeTx queue buffers
	outSpare    []outMsg          // flushOutbox double buffer
	keepQ       []outMsg          // flushOutbox not-yet-matured scratch
	recallSpare []pendingRecall   // processRecalls double buffer
	targetsBuf  []int             // homeRequest invalidation-target scratch
}

// ctlState is a controller's protocol state, a record of the image.
type ctlState struct {
	pending map[uint32]missState `counter:"outstanding_remote"` // by value: missState is two words, no box
	homeTx  map[uint32]homeTx    `counter:"pending_home_tx"`
	outbox  []outMsg
	recallQ []pendingRecall `counter:"deferred_recalls"`    // recalls deferred by the interlock or a miss
	fence   int             `counter:"outstanding_flushes"` // outstanding flush writebacks (Section 3.4)

	// locked implements the anti-"cache tag" interlock of Section 3.1:
	// a freshly installed line is protected from recalls until the
	// local processor completes one access to it (or lockWindow cycles
	// pass), guaranteeing forward progress when nodes ping-pong a
	// block. The window must exceed a switch-spinning thread's retry
	// period — all resident frames rotating through context switches —
	// or every line is stolen before its requester returns.
	locked map[uint32]uint64 // block -> protection expiry cycle

	// replySeq numbers this node's directory data replies for the fault
	// plan's reply-delay draws; it advances in send order, which both
	// run loops reproduce identically.
	replySeq uint64

	Stats CtlStats
}

// pendingRecall is a recall waiting for the interlock to release or
// for an in-flight grant to land (bounded by deadline).
type pendingRecall struct {
	msg      directory.Msg
	deadline uint64
}

// recallWait bounds how long a recall waits for a crossing grant
// before assuming the request is merely queued at the home.
const recallWait = 160

type outMsg struct {
	msg     directory.Msg
	dst     int
	readyAt uint64
}

func (c *cacheCtl) send(dst int, msg directory.Msg, delay int) {
	msg.From = c.node
	if p := c.fabric.plan; p != nil && (msg.Kind == directory.Data || msg.Kind == directory.DataEx) {
		// A slow memory controller: data grants leave the home late.
		delay += p.ReplyDelay(c.node, c.replySeq)
		c.replySeq++
	}
	readyAt := c.fabric.now + uint64(delay)
	c.outbox = append(c.outbox, outMsg{msg: msg, dst: dst, readyAt: readyAt})
	c.fabric.wakeAt(c.node, readyAt)
	c.fabric.trace.Emit(c.node, trace.KProtoSend,
		int32(msg.Kind), int32(msg.Block), int32(dst), int32(msg.Size(c.fabric.cfg.Cache.BlockBytes)))
}

// dirTrans records a directory state transition at this home node.
func (c *cacheCtl) dirTrans(block uint32, old, new directory.State, who int) {
	if old != new {
		c.fabric.trace.Emit(c.node, trace.KDirTrans, int32(block), int32(old), int32(new), int32(who))
	}
}

func (c *cacheCtl) flushOutbox() {
	// Handling a local delivery may append fresh messages to c.outbox;
	// take ownership of the current batch first so they are not lost
	// (they go out on the next cycle, like a real controller pipeline).
	// The batch and the not-yet-matured keeps swap between persistent
	// buffers so the steady state allocates nothing.
	box := c.outbox
	c.outbox = c.outSpare[:0]
	keep := c.keepQ[:0]
	for _, om := range box {
		if om.readyAt > c.fabric.now {
			keep = append(keep, om)
			continue
		}
		if om.dst == c.node {
			// Local delivery (home == requester side-channel).
			c.handle(om.msg)
			continue
		}
		f := c.fabric
		nm := f.net.Alloc()
		nm.Src = c.node
		nm.Dst = om.dst
		nm.Size = om.msg.Size(f.cfg.Cache.BlockBytes)
		nm.Payload = network.CoherencePayload(om.msg)
		f.net.Send(nm)
	}
	// The kept entries are filed in the calendar, and so is any entry
	// handle just appended (send files it).
	c.outbox = append(c.outbox, keep...)
	c.keepQ = keep[:0]
	c.outSpare = box[:0]
}

func (c *cacheCtl) blockOf(addr uint32) uint32 { return addr >> c.blockShift }

// Access implements proc.MemPort: hit per-op, else the miss path.
func (c *cacheCtl) Access(addr uint32, f isa.MemFlavor, store bool, value isa.Word) (proc.MemResult, error) {
	res, done, err := c.hit(addr, f, store, value, false)
	if !done {
		res, err = c.miss(addr, f, store, value)
	}
	if c.fabric.check != nil {
		c.fabric.checkBlock(c.blockOf(addr))
	}
	return res, err
}

// FusedHit implements proc.FusedPort: hit without a fabric clock. The
// callers exclude full/empty flavors and misaligned addresses. (Check
// runs the reference tier: Access's audit is not needed.)
func (c *cacheCtl) FusedHit(addr uint32, store bool, value isa.Word) (isa.Word, bool, bool) {
	res, done, _ := c.hit(addr, isa.MemFlavor{}, store, value, true)
	return res.Value, res.Full, done
}

// LaneHit implements proc.LanePort: FusedHit inside an epoch lane
// (epoch.go), which refuses besides a hit on an interlocked line (so
// no lane ever releases the interlock) and a store to a page that is
// not resident (a lane can undo a word, not a page), and records the
// line and the word in the lane's log before it commits the hit.
func (c *cacheCtl) LaneHit(addr uint32, store bool, value isa.Word, l *proc.EpochLog) (isa.Word, bool, bool) {
	ln, resident := c.cache.Find(c.blockOf(addr))
	if !resident || ln.Locked() || store && ln.State() != cache.Exclusive || !c.mem.InRange(addr) {
		return 0, false, false
	}
	idx := addr / mem.WordBytes
	prev, full, ok := c.mem.AccessResident(idx, store, value)
	if !ok {
		return 0, false, false
	}
	l.NoteHit(ln, idx, store, prev)
	ln.Touch()
	if store {
		ln.MarkDirty()
	}
	return prev, full, true
}

// hit is the one place a cache hit happens: probe the set once, decide,
// commit through the line handle. done reports that the access
// completed (or failed with err) on a resident line with the needed
// permission: a write (a store, or a flavor that sets or resets the
// full/empty bit) needs the exclusive copy, a load any copy.
//
// What an access that is not done leaves behind depends on the caller.
// Per-op, the cache has been looked up: a non-resident block counts a
// miss; an upgrade (a write without Exclusive) counts a hit and touches
// LRU before the miss path runs. Clock-free, a refusal touches nothing,
// so the fallback through Access sees the reference path's state; it
// also refuses an out-of-range address (Access reports the error) and
// a hit that would release the interlock under a deferred recall, which
// would then fire on the next tick — earlier than the nextEvent()
// horizon the fused window was proved against, which prices deferred
// recalls at lock expiry. Only the per-op path ticks every cycle.
func (c *cacheCtl) hit(addr uint32, f isa.MemFlavor, store bool, value isa.Word, clockFree bool) (res proc.MemResult, done bool, err error) {
	needWrite := store || f.ResetFE || f.SetFE
	block := c.blockOf(addr)
	ln, resident := c.cache.Find(block)
	if !resident {
		if !clockFree {
			c.cache.Misses++
		}
		return res, false, nil
	}
	upgrade := needWrite && ln.State() != cache.Exclusive
	if clockFree && (upgrade || !c.mem.InRange(addr) || ln.Locked() && c.recallDeferred(block)) {
		return res, false, nil
	}
	ln.Touch()
	if upgrade {
		c.Stats.Upgrades++
		return res, false, nil
	}
	if clockFree {
		res.Value, res.Full = c.mem.AccessPlain(addr/mem.WordBytes, store, value)
	} else if res, err = proc.FEAccess(c.mem, addr, f, store, value); err != nil {
		return res, true, err
	}
	if needWrite && res.Outcome == proc.OK {
		ln.MarkDirty()
	}
	if ln.Locked() { // one access completed: release the interlock
		ln.SetLocked(false)
		delete(c.locked, block)
		if c.recallDeferred(block) {
			c.fabric.wakeAt(c.node, c.fabric.now) // the recall it held acts next tick
		}
	}
	return res, true, nil
}

// recallDeferred reports whether a recall for block waits in recallQ.
func (c *cacheCtl) recallDeferred(block uint32) bool {
	return slices.ContainsFunc(c.recallQ, func(pr pendingRecall) bool { return pr.msg.Block == block })
}

// miss is Access after hit declined: the block is not resident, or
// resident without the permission a write needs.
func (c *cacheCtl) miss(addr uint32, f isa.MemFlavor, store bool, value isa.Word) (proc.MemResult, error) {
	needWrite := store || f.ResetFE || f.SetFE
	block := c.blockOf(addr)

	// An outstanding transaction for this block?
	if _, busy := c.pending[block]; busy {
		return c.missResult(f), nil
	}

	home := c.fabric.dist.Home(addr)
	if home == c.node {
		if ln, ok := c.tryLocal(block, needWrite); ok {
			stall := c.fabric.cfg.MemLatency
			res, err := proc.FEAccess(c.mem, addr, f, store, value)
			res.Stall += stall
			if err == nil && res.Outcome == proc.OK && needWrite {
				ln.MarkDirty()
			}
			c.Stats.LocalMisses++
			c.fabric.trace.Emit(c.node, trace.KLocalMiss, int32(block), int32(stall), b2i(needWrite), 0)
			return res, err
		}
	}

	// A transaction: at the remote home, or — home here, but third
	// parties hold the block — against ourselves as requester.
	c.pending[block] = missState{write: needWrite, start: c.fabric.now}
	c.fabric.trace.Emit(c.node, trace.KMissStart, int32(block), b2i(needWrite), int32(home), 0)
	req := directory.Msg{Kind: directory.ReadReq, Block: block, From: c.node}
	if needWrite {
		req.Kind = directory.WriteReq
	}
	if home == c.node {
		c.homeRequest(req)
	} else {
		c.send(home, req, 0)
	}
	return c.missResult(f), nil
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// missResult is the reply while a transaction is outstanding: trap
// flavors force a context switch; wait flavors hold the processor.
func (c *cacheCtl) missResult(f isa.MemFlavor) proc.MemResult {
	if f.WaitOnMiss {
		return proc.MemResult{Outcome: proc.Retry, Stall: c.fabric.cfg.PollCycles}
	}
	return proc.MemResult{Outcome: proc.RemoteMiss}
}

// tryLocal satisfies a home-node miss without the network (at the cost
// of one memory access) when the directory permits: nobody else holds
// the block, or only we do. It returns the installed line.
func (c *cacheCtl) tryLocal(block uint32, write bool) (ln cache.Line, ok bool) {
	if _, busy := c.homeTx[block]; busy {
		return ln, false
	}
	e := c.dir.Entry(block)
	self := c.node
	old := e.State
	switch e.State {
	case directory.Uncached:
	case directory.Shared:
		if write && e.Sharers.CountExcept(self) > 0 {
			return ln, false
		}
	case directory.Exclusive:
		if int(e.Owner) != self {
			return ln, false
		}
	}
	if write {
		e.State = directory.Exclusive
		e.Owner = int32(self)
		e.Sharers.Clear()
	} else {
		if e.State != directory.Shared {
			e.State = directory.Shared
			e.Owner = -1
		}
		e.Sharers.Add(self)
	}
	c.dirTrans(block, old, e.State, self)
	return c.install(block, write), true
}

// install puts the block in the cache, handling the victim's protocol
// obligations, and returns its line with the interlock flag re-derived
// from locked, keeping flag == (block resident && block in locked): a
// hit reads the flag and skips the map; the recall paths read the map,
// whose entries outlive eviction (only a completed hit deletes one).
func (c *cacheCtl) install(block uint32, write bool) cache.Line {
	st := cache.Shared
	if write {
		st = cache.Exclusive
	}
	if h := c.fabric.laneHook; h != nil {
		h(c.node, block)
	}
	victim, evicted := c.cache.Insert(block, st)
	if evicted && victim.State == cache.Exclusive {
		// Notify the victim's home so the directory drops ownership.
		vhome := c.fabric.dist.Home(victim.Block << c.blockShift)
		c.send(vhome, directory.Msg{Kind: directory.WBNotify, Block: victim.Block}, 0)
	}
	// Shared victims are dropped silently; a later Inv to a non-holder
	// is acknowledged harmlessly.
	ln, _ := c.cache.Find(block)
	_, held := c.locked[block]
	ln.SetLocked(held)
	return ln
}

// handle processes one protocol message at this controller.
func (c *cacheCtl) handle(msg directory.Msg) {
	c.handleMsg(msg)
	if len(c.recallQ) > 0 {
		// A recall just deferred, or a grant that may end a wait (it
		// changes pending and the cache): retry them in the next pass.
		c.fabric.wakeAt(c.node, c.fabric.now)
	}
	if c.fabric.check != nil {
		c.fabric.checkBlock(msg.Block)
	}
}

func (c *cacheCtl) handleMsg(msg directory.Msg) {
	switch msg.Kind {
	case directory.ReadReq, directory.WriteReq:
		c.homeRequest(msg)

	case directory.WBNotify, directory.FlushWB:
		// With a Fetch in flight the FetchAck path completes the tx.
		if _, busy := c.homeTx[msg.Block]; !busy {
			e := c.dir.Entry(msg.Block)
			if e.State == directory.Exclusive && int(e.Owner) == msg.From {
				e.State = directory.Uncached
				e.Owner = -1
				c.dirTrans(msg.Block, directory.Exclusive, directory.Uncached, msg.From)
			}
		}
		c.dir.Writebacks++
		if msg.Kind == directory.FlushWB {
			c.send(msg.From, directory.Msg{Kind: directory.FlushAck, Block: msg.Block}, 0)
		}

	case directory.FlushAck:
		if c.fence > 0 {
			c.fence--
		}

	case directory.Inv, directory.Fetch:
		c.handleRecall(msg)

	case directory.InvAck, directory.FetchAck:
		c.homeAck(msg)

	case directory.Data, directory.DataEx:
		ms, busy := c.pending[msg.Block]
		if !busy {
			return // stale duplicate; drop
		}
		delete(c.pending, msg.Block)
		c.Stats.RemoteMisses++
		c.Stats.RemoteLatency += c.fabric.now - ms.start
		c.fabric.trace.Emit(c.node, trace.KMissFill,
			int32(msg.Block), int32(c.fabric.now-ms.start), b2i(msg.Kind == directory.DataEx), b2i(ms.poisoned))
		if ms.poisoned {
			// A recall crossed this grant: the copy is already claimed
			// by a newer transaction. Drop it; the access re-requests
			// when retried — the "cache tag" interaction of Section 3.1.
			return
		}
		// Recalls that were waiting for this grant now queue behind the
		// first-use interlock (processRecalls applies them).
		c.locked[msg.Block] = c.fabric.now + c.lockWindow
		c.install(msg.Block, msg.Kind == directory.DataEx)
	}
}

// handleRecall routes an incoming Inv/Fetch:
//
//   - if a grant for the block may be in flight (miss pending, nothing
//     cached), wait for it — bounded by recallWait in case the request
//     is merely queued at the home — so the grant is not silently
//     orphaned into a second exclusive copy;
//   - if we still hold a copy, the recall applies to it now; a pending
//     upgrade's grant is then stale, so poison it;
//   - if the line is interlock-protected, wait for its first use
//     (Section 3.1's forward-progress interlock).
func (c *cacheCtl) handleRecall(msg directory.Msg) {
	_, cached := c.cache.Probe(msg.Block)
	if ms, busy := c.pending[msg.Block]; busy {
		if !cached {
			c.recallQ = append(c.recallQ, pendingRecall{msg: msg, deadline: c.fabric.now + recallWait})
			return
		}
		ms.poisoned = true
		c.pending[msg.Block] = ms
	}
	if exp, held := c.locked[msg.Block]; held && c.fabric.now < exp {
		c.recallQ = append(c.recallQ, pendingRecall{msg: msg, deadline: c.fabric.now + recallWait})
		return
	}
	c.recall(msg)
}

// processRecalls retries deferred recalls once their reason to wait has
// passed: the interlock released, the awaited grant arrived (the line
// is now present and, once used, surrendered), or the deadline expired
// (the "grant" was actually a queued request — ack now and poison).
func (c *cacheCtl) processRecalls() {
	if len(c.recallQ) == 0 {
		return
	}
	q := c.recallQ
	c.recallQ = c.recallSpare[:0]
	for _, pr := range q {
		block := pr.msg.Block
		if exp, held := c.locked[block]; held && c.fabric.now < exp {
			c.recallQ = append(c.recallQ, pr)
			continue
		}
		ms, busy := c.pending[block]
		_, cached := c.cache.Probe(block)
		if busy && !cached && c.fabric.now < pr.deadline {
			c.recallQ = append(c.recallQ, pr)
			continue
		}
		if busy {
			ms.poisoned = true
			c.pending[block] = ms
		}
		c.recall(pr.msg)
	}
	c.recallSpare = q[:0]
	c.fileRecalls()
}

// fileRecalls files the controller at the earliest cycle a waiting
// recall can act by the clock alone, processRecalls' rule: a recall
// on a locked block waits for the interlock's expiry whatever its
// deadline, any other for its deadline. The other events that end a
// wait — a grant or a dropped stale grant (handle) and a first-use hit
// (hit) — file the controller themselves.
func (c *cacheCtl) fileRecalls() {
	if len(c.recallQ) == 0 {
		return
	}
	at := uint64(calendar.None)
	for i := range c.recallQ {
		pr := &c.recallQ[i]
		if exp, held := c.locked[pr.msg.Block]; held && c.fabric.now < exp {
			at = min(at, exp)
		} else {
			at = min(at, pr.deadline)
		}
	}
	c.fabric.wakeAt(c.node, at)
}

// recall services an Inv or Fetch against the local cache and
// acknowledges the home.
func (c *cacheCtl) recall(msg directory.Msg) {
	if h := c.fabric.laneHook; h != nil {
		h(c.node, msg.Block)
	}
	switch msg.Kind {
	case directory.Inv:
		c.cache.Invalidate(msg.Block)
		c.send(msg.From, directory.Msg{Kind: directory.InvAck, Block: msg.Block, Requester: msg.Requester}, 0)
	case directory.Fetch:
		if msg.Write {
			c.cache.Invalidate(msg.Block)
		} else {
			c.cache.SetState(msg.Block, cache.Shared)
		}
		c.send(msg.From, directory.Msg{Kind: directory.FetchAck, Block: msg.Block, Requester: msg.Requester}, 0)
	}
	if c.fabric.check != nil {
		// Recalls applied from processRecalls mutate cache state outside
		// the handle path; audit the block here to cover both routes.
		c.fabric.checkBlock(msg.Block)
	}
}

// homeRequest runs the directory state machine for a request arriving
// at this (home) node.
func (c *cacheCtl) homeRequest(req directory.Msg) {
	if tx, busy := c.homeTx[req.Block]; busy {
		tx.queued = append(tx.queued, req)
		c.homeTx[req.Block] = tx
		return
	}
	e := c.dir.Entry(req.Block)
	lat := c.fabric.cfg.MemLatency
	write := req.Kind == directory.WriteReq
	old := e.State
	defer func() { c.dirTrans(req.Block, old, e.State, req.From) }()

	if !write {
		c.dir.ReadMisses++
		switch e.State {
		case directory.Uncached, directory.Shared:
			e.State = directory.Shared
			e.Sharers.Add(req.From)
			c.send(req.From, directory.Msg{Kind: directory.Data, Block: req.Block}, lat)
		case directory.Exclusive:
			if int(e.Owner) == req.From {
				// Owner lost its copy (silent race); re-grant.
				c.send(req.From, directory.Msg{Kind: directory.DataEx, Block: req.Block}, lat)
				return
			}
			c.dir.Fetches++
			c.homeTx[req.Block] = c.newTx(false, req.From, 1)
			c.send(int(e.Owner), directory.Msg{Kind: directory.Fetch, Block: req.Block, Requester: req.From, Write: false}, 0)
		}
		return
	}

	c.dir.WriteMisses++
	switch e.State {
	case directory.Uncached:
		e.State = directory.Exclusive
		e.Owner = int32(req.From)
		c.send(req.From, directory.Msg{Kind: directory.DataEx, Block: req.Block}, lat)
	case directory.Shared:
		targets := e.Sharers.AppendMembers(c.targetsBuf[:0], req.From)
		c.targetsBuf = targets[:0]
		if len(targets) == 0 {
			e.State = directory.Exclusive
			e.Owner = int32(req.From)
			e.Sharers.Clear()
			c.send(req.From, directory.Msg{Kind: directory.DataEx, Block: req.Block}, lat)
			return
		}
		c.dir.InvalsSent += uint64(len(targets))
		c.homeTx[req.Block] = c.newTx(true, req.From, len(targets))
		for _, t := range targets {
			c.send(t, directory.Msg{Kind: directory.Inv, Block: req.Block, Requester: req.From}, 0)
		}
	case directory.Exclusive:
		if int(e.Owner) == req.From {
			c.send(req.From, directory.Msg{Kind: directory.DataEx, Block: req.Block}, lat)
			return
		}
		c.dir.Fetches++
		c.homeTx[req.Block] = c.newTx(true, req.From, 1)
		c.send(int(e.Owner), directory.Msg{Kind: directory.Fetch, Block: req.Block, Requester: req.From, Write: true}, 0)
	}
}

// homeAck retires one acknowledgment of a pending home transaction and
// completes it when all are in.
func (c *cacheCtl) homeAck(msg directory.Msg) {
	tx, busy := c.homeTx[msg.Block]
	if !busy {
		return
	}
	tx.acksLeft--
	if tx.acksLeft > 0 {
		c.homeTx[msg.Block] = tx
		return
	}
	delete(c.homeTx, msg.Block)
	e := c.dir.Entry(msg.Block)
	lat := c.fabric.cfg.MemLatency
	old := e.State
	if tx.write {
		e.State = directory.Exclusive
		e.Owner = int32(tx.requester)
		e.Sharers.Clear()
		c.send(tx.requester, directory.Msg{Kind: directory.DataEx, Block: msg.Block}, lat)
	} else {
		prevOwner := e.Owner
		e.State = directory.Shared
		e.Owner = -1
		if prevOwner >= 0 {
			e.Sharers.Add(int(prevOwner)) // downgraded, keeps a read copy
		}
		e.Sharers.Add(tx.requester)
		c.send(tx.requester, directory.Msg{Kind: directory.Data, Block: msg.Block}, lat)
	}
	c.dirTrans(msg.Block, old, e.State, tx.requester)
	// Serve queued requests in arrival order. A served request may open
	// a fresh transaction on the same block; its queue is a different
	// buffer, so iterating tx.queued stays safe. Retire tx (keeping its
	// queued capacity) only after the loop.
	for _, q := range tx.queued {
		c.homeRequest(q)
	}
	c.freeTx(tx)
}

// Flush implements proc.MemPort: software-enforced writeback and
// invalidation (Section 3.4). Dirty lines raise the fence counter
// until the home acknowledges.
func (c *cacheCtl) Flush(addr uint32) int {
	n := c.flush(addr)
	if c.fabric.check != nil {
		c.fabric.checkBlock(c.blockOf(addr))
	}
	return n
}

func (c *cacheCtl) flush(addr uint32) int {
	block := c.blockOf(addr)
	if dirty, _ := c.cache.Invalidate(block); !dirty {
		return 1
	}
	home := c.fabric.dist.Home(addr)
	if home != c.node {
		c.fence++
		c.send(home, directory.Msg{Kind: directory.FlushWB, Block: block}, 0)
		return 1
	}
	if e := c.dir.Entry(block); e.State == directory.Exclusive && int(e.Owner) == c.node {
		e.State = directory.Uncached
		e.Owner = -1
	}
	return c.fabric.cfg.MemLatency
}

// Fence reports the outstanding flush count (read through LDIO).
func (c *cacheCtl) Fence() int { return c.fence }

var _ proc.MemPort = (*cacheCtl)(nil)
