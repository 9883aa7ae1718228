package proc

// Epoch execution, processor side. The machine's epoch engine (sim's
// epoch.go) runs a node's ops back to back, ahead of the rest of the
// machine, through EpochRun: a lane. EpochRun executes only ops whose
// effects provably stay inside the node: the trap-free
// superinstruction handlers (fusedOp) and one memory access, a plain
// word of perfect memory or a clock-free hit in the node's own cache.
// Anything else (traps, syscalls, flushes, I/O, halts, IPIs,
// strict-future operands, full/empty flavors, misses, upgrades,
// interlocked lines) stops it before that op with the op untouched;
// the machine then runs that op per-op at its exact cycle.
//
// An EpochLog records what lanes touched, so the machine can undo
// them. It has two modes, one per memory system:
//
//   - Chunks (perfect memory): the lanes of one chunk run in order.
//     The log records every word each lane touches and the old value
//     of every word it stores, and aborts the chunk on a word touched
//     by two lanes with at least one store, on a store to a page that
//     is not resident (a word can be undone, a page cannot), or when
//     it is full.
//   - Node lanes (ALEWIFE): each node has at most one lane in flight,
//     begun whenever the machine chose. The log records every word
//     the lane touched and every cache line it hit, with their values
//     before, so the machine can tell which outside actions reach
//     into the lane and cut it back (Cut) before they do.
//
// Both modes save every lane's starting processor state; a rollback
// restores it and undoes the lane's stores (and, for node lanes, its
// cache hits) newest first.

import (
	"april/internal/cache"
	"april/internal/core"
	"april/internal/isa"
	"april/internal/mem"
)

// EpochBudget bounds the ops of one chunk (its cycles times its lanes),
// and with it the undo log: a chunk stores at most one word per op.
// Chunks of two or more cycles therefore have at most EpochBudget/2
// lanes.
const EpochBudget = 512

// The access table is open-addressed on exact word indexes. A slot
// holds the word index in its low 32 bits, then a stored bit, a shared
// bit (read by two or more lanes), the touching lane and the chunk
// generation; a slot of an older generation is empty, so starting a
// chunk clears nothing.
const (
	logSlotBits   = 9
	logSlots      = 1 << logSlotBits // 4 KiB
	logFull       = logSlots / 2     // distinct words per chunk: keeps probes short
	slotStored    = 1 << 32
	slotShared    = 1 << 33
	slotLaneShift = 34 // 8 bits: lanes < EpochBudget/2
	slotGenShift  = 42
	maxGen        = 1<<(64-slotGenShift) - 1
)

// EpochLog is a machine's record of the lanes in flight: for chunks,
// the access table, the undo log and each lane's starting state; for
// node lanes, one lane record per node. Allocated once per machine and
// reused.
type EpochLog struct {
	slots [logSlots]uint64
	gen   uint64
	used  int
	undo  [EpochBudget]undoEntry
	nundo int
	lanes []laneSave // in run order; lanes[:n] began this chunk
	n     int
	abort bool

	// Node lanes: the record of each node's lane in flight, nil when it
	// has none; free holds retired records for reuse. mem is the memory
	// the lanes' cache hits read and write.
	byNode []*laneSave
	free   []*laneSave
	mem    *mem.Memory
	cur    *laneSave // the node lane EpochRun is running
}

type undoEntry struct {
	idx uint32 // word index
	old isa.Word
}

// Touch is one word a node lane read or wrote: its index, whether the
// lane stored to it, and (for a store) the word as it was.
type Touch struct {
	Idx    uint32
	Stored bool
	old    isa.Word
}

// laneSave is everything EpochRun can change on a processor, as it was
// when the lane began, plus what the lane touched outside it: for a
// chunk lane, its span of the undo log; for a node lane, its words,
// the cache lines it hit and the cache's clock before the first hit.
type laneSave struct {
	frame                               core.Frame
	globals                             [isa.NumGlobalRegs]isa.Word
	instructions, useful, loads, stores uint64
	epochOps                            uint64
	kinds                               [isa.NumMicroKinds]uint64
	undo, end                           int
	ran                                 int

	words  []Touch
	lines  []cache.LineUndo
	mark   cache.Mark
	marked bool
}

// NewEpochLog returns a log for chunks of up to nodes lanes.
func NewEpochLog(nodes int) *EpochLog {
	return &EpochLog{lanes: make([]laneSave, min(nodes, EpochBudget/2))}
}

// NewLaneLog returns a log for node lanes on a machine of the given
// size whose caches front mm. Records are allocated as lanes begin and
// reused once retired, so the log grows with the lanes in flight at
// once, not with the machine.
func NewLaneLog(nodes int, mm *mem.Memory) *EpochLog {
	return &EpochLog{byNode: make([]*laneSave, nodes), mem: mm}
}

// Begin starts a chunk: no words touched, nothing to undo, no lanes.
func (l *EpochLog) Begin() {
	if l.gen++; l.gen > maxGen {
		clear(l.slots[:])
		l.gen = 1
	}
	l.used, l.nundo, l.n = 0, 0, 0
}

// Ran reports how many ops lane executed in this chunk.
func (l *EpochLog) Ran(lane int) int { return l.lanes[lane].ran }

// Rollback returns lane's processor to the state its chunk began in:
// the lane's stores are undone newest first, then its frame, globals,
// counters and Kinds restored.
func (l *EpochLog) Rollback(p *Processor, lane int) {
	s := &l.lanes[lane]
	for i := s.end - 1; i >= s.undo; i-- {
		p.perfMem.AccessPlain(l.undo[i].idx, true, l.undo[i].old)
	}
	s.restore(p)
}

// Touches lists the words node's lane in flight touched, in order (nil
// when it has none).
func (l *EpochLog) Touches(node int) []Touch {
	if s := l.byNode[node]; s != nil {
		return s.words
	}
	return nil
}

// Cut returns p's lane to its first n ops: the lane is rolled back to
// its start (its stores and cache hits undone newest first, then the
// processor restored) and its first n ops run again. The replay is
// exact when nothing outside the lane has changed what the lane
// touched since it ran, which the machine guarantees by cutting before
// any such change.
func (l *EpochLog) Cut(p *Processor, n int) {
	s := l.byNode[p.ID]
	for i := len(s.words) - 1; i >= 0; i-- {
		if t := &s.words[i]; t.Stored {
			l.mem.AccessPlain(t.Idx, true, t.old)
		}
	}
	for i := len(s.lines) - 1; i >= 0; i-- {
		s.lines[i].Restore()
	}
	if s.marked {
		s.mark.Rewind()
	}
	s.restore(p)
	if ran, _ := p.EpochRun(n, l); ran != n {
		panic("proc: a cut lane's replay diverged from its first run")
	}
}

// Retire drops node's lane record: the lane is committed.
func (l *EpochLog) Retire(node int) {
	if s := l.byNode[node]; s != nil {
		l.byNode[node] = nil
		l.free = append(l.free, s)
	}
}

// restore puts back the processor state the lane began with.
func (s *laneSave) restore(p *Processor) {
	*p.Engine.Active() = s.frame
	p.Engine.Globals = s.globals
	p.Stats.Instructions, p.Stats.UsefulCycles = s.instructions, s.useful
	p.Stats.LoadCount, p.Stats.StoreCount = s.loads, s.stores
	p.EpochOps = s.epochOps
	p.Kinds = s.kinds
}

// save begins the next lane with p, whose active frame is f: the
// chunk's next lane in run order, or p's node lane of up to n ops.
func (l *EpochLog) save(p *Processor, f *core.Frame, n int) {
	var s *laneSave
	if l.byNode != nil {
		if s = l.byNode[p.ID]; s == nil {
			if k := len(l.free); k > 0 {
				s, l.free = l.free[k-1], l.free[:k-1]
			} else {
				s = new(laneSave)
			}
			l.byNode[p.ID] = s
		}
		if cap(s.words) < n { // at most one hit per op: sized once
			s.words, s.lines = make([]Touch, 0, n), make([]cache.LineUndo, 0, n)
		}
		s.words, s.lines, s.marked = s.words[:0], s.lines[:0], false
		l.cur = s
	} else {
		s = &l.lanes[l.n]
		l.n++
		s.undo = l.nundo
	}
	s.frame = *f
	s.globals = p.Engine.Globals
	s.instructions, s.useful = p.Stats.Instructions, p.Stats.UsefulCycles
	s.loads, s.stores = p.Stats.LoadCount, p.Stats.StoreCount
	s.epochOps = p.EpochOps
	s.kinds = p.Kinds
}

// NoteHit records, for the node lane in progress, a cache hit about to
// commit on line ln of cache c: the line's state before it, the cache
// clock before the lane's first hit, and the word the hit reads or
// (with store) overwrites, whose value before is prev.
func (l *EpochLog) NoteHit(c *cache.Cache, ln cache.Line, idx uint32, store bool, prev isa.Word) {
	s := l.cur
	if !s.marked {
		s.mark, s.marked = c.Mark(), true
	}
	s.lines = append(s.lines, ln.Undo())
	s.words = append(s.words, Touch{Idx: idx, Stored: store, old: prev})
}

// access is fusedMem's plain access for the lane in progress, recorded
// in the table and, for a store, the undo log. ok=false means it
// aborted the chunk and touched nothing: the word was touched by
// another lane and one of the two accesses stores, the table is full,
// or the store is to a page that is not resident.
func (l *EpochLog) access(mm *mem.Memory, idx uint32, store bool, value isa.Word) (prev isa.Word, full, ok bool) {
	lane := uint64(l.n - 1)
	h := idx * 0x9E3779B1 >> (32 - logSlotBits)
	for {
		s := &l.slots[h]
		if *s>>slotGenShift != l.gen {
			if l.used == logFull {
				l.abort = true
				return 0, false, false
			}
			l.used++
			*s = l.gen<<slotGenShift | lane<<slotLaneShift | uint64(idx)
			break
		}
		if uint32(*s) == idx {
			if *s&slotShared != 0 || *s>>slotLaneShift&0xff != lane {
				if store || *s&slotStored != 0 {
					l.abort = true
					return 0, false, false
				}
				*s |= slotShared
			}
			break
		}
		h = (h + 1) & (logSlots - 1)
	}
	if !store {
		prev, full, _ = mm.AccessResident(idx, false, 0)
		return prev, full, true
	}
	if prev, full, ok = mm.AccessResident(idx, true, value); !ok {
		l.abort = true
		return 0, false, false
	}
	l.slots[h] |= slotStored
	l.undo[l.nundo] = undoEntry{idx, prev}
	l.nundo++
	return prev, full, true
}

// LanePort is implemented by memory ports whose clock-free cache hits
// can run inside a node lane: LaneHit is FusedHit that also refuses a
// hit on an interlocked line and a store to a page that is not
// resident, and records the hit in l (NoteHit) before committing it.
type LanePort interface {
	LaneHit(addr uint32, store bool, value isa.Word, l *EpochLog) (prev isa.Word, full, ok bool)
}

// EpochRun executes up to n of the processor's next ops back to back
// while each is epoch-safe: a running thread at an in-bounds PC whose
// op the superinstruction handlers complete without trapping, erroring,
// or reaching outside the node. It stops before the first op that is
// not, with that op untouched, and returns how many ran. Each retired
// at cost 1 with the same state transformation, stats and dispatch
// accounting (Kinds) as a plain Step; Kinds counts only completed ops,
// since the per-op path counts the refused one's own dispatch.
//
// With a nil log the ops execute as they would at consecutive cycles
// of the reference loop with no other node stepping. With a log they
// run as
// a lane: the lane's starting state is saved and its accesses
// recorded, and abort reports that one of them aborted the chunk,
// whose lanes the caller must then roll back. The lanes of one chunk
// run at most EpochBudget ops together.
func (p *Processor) EpochRun(n int, l *EpochLog) (ran int, abort bool) {
	f := p.Engine.Active()
	if l != nil {
		l.save(p, f, n)
		p.epoch = l
	}
	if !p.Halted && p.ipiHead == len(p.pendingIPI) && f.ThreadID >= 0 && p.blocks != nil {
		m := p.micro
		perfect := p.perfMem != nil
		for ran < n && uint64(f.PC) < uint64(len(m)) {
			u := &m[f.PC]
			// A memory op skips fusedOp's dispatch: perfect memory runs
			// the plain access, ALEWIFE a cache hit, which inside a
			// node lane goes through the port's LaneHit.
			if u.Kind == isa.MMem {
				if perfect {
					if !p.fusedMem(f, u) {
						break
					}
				} else if !p.fusedHit(f, u) {
					break
				}
			} else if !p.fusedOp(f, u) {
				break
			}
			p.Kinds[u.Kind]++
			ran++
		}
	}
	r := uint64(ran)
	p.Stats.Instructions += r
	p.Stats.UsefulCycles += r
	p.EpochOps += r
	if l != nil {
		p.epoch = nil
		if l.byNode != nil {
			l.byNode[p.ID].ran = ran
		} else {
			s := &l.lanes[l.n-1]
			s.end, s.ran = l.nundo, ran
			abort, l.abort = l.abort, false
		}
	}
	return ran, abort
}
