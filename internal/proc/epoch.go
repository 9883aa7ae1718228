package proc

// Epoch execution, processor side. The machine's epoch engine (sim's
// epoch.go) runs a node's ops back to back, ahead of the rest of the
// machine, as a lane: RunAhead (compile.go) with the machine's
// EpochLog. A lane runs only ops whose effects provably stay inside
// the node: the trap-free superinstruction handlers (fusedOp), whose
// one memory access is a plain word of perfect memory or a clock-free
// hit in the node's own cache, recorded in the log. Anything else
// (traps, syscalls, flushes, I/O, halts, IPIs, strict-future operands,
// full/empty flavors, misses, upgrades, interlocked lines) stops it
// before that op with the op untouched; the machine then runs that op
// per-op at its exact cycle.
//
// An EpochLog holds each node's lane in flight: its starting processor
// state, every word it touched (with the value before, for a store)
// and, on ALEWIFE, every cache line it hit, so the machine can cut the
// lane back (Cut) before an outside action reaches into it. On perfect
// memory, where no cache keeps lanes apart, a lane also holds one of 64
// slots and marks each page it touches with the slot's bit (mem.Marks):
// a lane refuses an op that would touch a word another lane in flight
// touched where either side stores (access), and the machine asks which
// lanes an access outside them reaches (Reaches). The marks find the
// lanes that touched a page; their touch lists decide on the word.
// DESIGN.md ("Epoch execution") has the exactness argument.

import (
	"math/bits"

	"april/internal/cache"
	"april/internal/core"
	"april/internal/isa"
	"april/internal/mem"
)

// EpochLog is a machine's record of its lanes in flight, one per node,
// allocated once per machine and reused.
type EpochLog struct {
	// byNode holds each node's lane record, nil when it has none; free
	// holds retired records for reuse. mem is the memory the lanes
	// read and write, cur the lane RunAhead is running.
	byNode []*laneSave
	free   []*laneSave
	mem    *mem.Memory
	cur    *laneSave

	// The lane slots (perfect memory): slots[i] is the lane holding
	// slot i, whose bit is 1<<i in the pages' marks, and idle has a bit
	// set for each free slot. reach is Reaches' scratch.
	slots [64]*laneSave
	idle  uint64
	reach []int
}

// Touch is one word a lane read or wrote: its index, whether the lane
// stored to it, and (for a store) the word as it was. A lane records
// every access, on ALEWIFE and on perfect memory alike.
type Touch struct {
	Idx    uint32
	Stored bool
	old    isa.Word
}

// laneSave is everything a lane can change on a processor, as it was
// when the lane began, plus what the lane touched outside it: its
// words, the cache lines it hit and, on perfect memory, the marks of
// the pages it touched. node is the lane's node and bit its slot's
// (0 when it holds none).
type laneSave struct {
	frame                               core.Frame
	globals                             [isa.NumGlobalRegs]isa.Word
	instructions, useful, loads, stores uint64
	epochOps                            uint64
	kinds                               [isa.NumMicroKinds]uint64

	words []Touch
	lines []cache.LineUndo
	node  int
	bit   uint64
	pages []*mem.Marks
}

// NewLaneLog returns a log for the lanes of a machine of the given
// size over mm. Records are allocated as lanes begin and reused once
// retired, so the log grows with the lanes in flight at once, not with
// the machine.
func NewLaneLog(nodes int, mm *mem.Memory) *EpochLog {
	return &EpochLog{byNode: make([]*laneSave, nodes), mem: mm, idle: ^uint64(0)}
}

// Touches lists the words node's lane in flight touched, in order (nil
// when it has none): on ALEWIFE every hit, on perfect memory every
// access.
func (l *EpochLog) Touches(node int) []Touch {
	if s := l.byNode[node]; s != nil {
		return s.words
	}
	return nil
}

// Cut returns p's lane to its first n ops: the lane is rolled back to
// its start (its stores and cache hits undone newest first, its page
// marks cleared, then the processor restored) and its first n ops run
// again. The replay is exact when nothing outside the lane has changed
// what the lane touched since it ran, which the machine guarantees by
// cutting before any such change.
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
	s.unmark()
	s.restore(p)
	if ran, _, _, _, _ := p.RunAhead(uint64(n), nil, l); ran != n {
		panic("proc: a cut lane's replay diverged from its first run")
	}
}

// Retire drops node's lane record, clearing its page marks and freeing
// its slot: the lane is committed.
func (l *EpochLog) Retire(node int) {
	if s := l.byNode[node]; s != nil {
		s.unmark()
		if s.bit != 0 {
			l.idle |= s.bit
			l.slots[bits.TrailingZeros64(s.bit)] = nil
			s.bit = 0
		}
		l.byNode[node] = nil
		l.free = append(l.free, s)
	}
}

// unmark clears s's bit on the pages it marked.
func (s *laneSave) unmark() {
	for _, mk := range s.pages {
		mk.Touched &^= s.bit
		mk.Stored &^= s.bit
	}
	s.pages = s.pages[:0]
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

// save begins p's lane of up to n ops, whose active frame is f. A new
// record on perfect memory takes a free slot; with all 64 taken it
// holds none, and the lane refuses every memory op.
func (l *EpochLog) save(p *Processor, f *core.Frame, n int) {
	s := l.byNode[p.ID]
	if s == nil {
		if k := len(l.free); k > 0 {
			s, l.free = l.free[k-1], l.free[:k-1]
		} else {
			s = new(laneSave)
		}
		l.byNode[p.ID] = s
		s.node = p.ID
		if p.perfMem != nil && l.idle != 0 {
			i := bits.TrailingZeros64(l.idle)
			s.bit = 1 << i
			l.idle &^= s.bit
			l.slots[i] = s
		}
	}
	if cap(s.words) < n { // at most one access per op: sized once
		s.words, s.lines = make([]Touch, 0, n), make([]cache.LineUndo, 0, n)
	}
	s.words, s.lines = s.words[:0], s.lines[:0]
	l.cur = s
	s.frame = *f
	s.globals = p.Engine.Globals
	s.instructions, s.useful = p.Stats.Instructions, p.Stats.UsefulCycles
	s.loads, s.stores = p.Stats.LoadCount, p.Stats.StoreCount
	s.epochOps = p.EpochOps
	s.kinds = p.Kinds
}

// NoteHit records, for the lane in progress, a cache hit about to
// commit on line ln: the line's state before it, and the word the hit
// reads or (with store) overwrites, whose value before is prev.
func (l *EpochLog) NoteHit(ln cache.Line, idx uint32, store bool, prev isa.Word) {
	s := l.cur
	s.lines = append(s.lines, ln.Undo())
	s.words = append(s.words, Touch{Idx: idx, Stored: store, old: prev})
}

// access is fusedMem's plain access for the lane in progress on
// perfect memory. ok=false means the lane refuses the op and nothing
// was touched: the lane holds no slot, the page is not resident, or
// another lane in flight touched the word and one of the two stores.
// Otherwise the access is made, the page marked and the access
// recorded.
//
// The page's marks decide most accesses alone: no other lane marked
// the page, or the access loads and no other lane stored there. Only
// otherwise are the marking lanes' touch lists read for the word.
func (l *EpochLog) access(idx uint32, store bool, value isa.Word) (prev isa.Word, full, ok bool) {
	s := l.cur
	if s.bit == 0 {
		return 0, false, false
	}
	prev, full, mk, ok := l.mem.LaneAccess(idx, s.bit, store, value)
	if !ok {
		if mk == nil || l.reaches(mk, idx, store, s.bit) {
			return 0, false, false
		}
		prev, full, _ = l.mem.AccessResident(idx, store, value)
	}
	if mk.Touched&s.bit == 0 {
		mk.Touched |= s.bit
		s.pages = append(s.pages, mk)
	}
	if store {
		mk.Stored |= s.bit
	}
	s.words = append(s.words, Touch{Idx: idx, Stored: store, old: prev})
	return prev, full, true
}

// reaches reports whether an access to word idx (a store with store)
// on the page marked mk conflicts with a lane other than the one
// holding own: the lane touched the word, and it or the access stores.
func (l *EpochLog) reaches(mk *mem.Marks, idx uint32, store bool, own uint64) bool {
	for m := mk.Conflicting(store) &^ own; m != 0; m &= m - 1 {
		if l.slots[bits.TrailingZeros64(m)].touched(idx, !store) {
			return true
		}
	}
	return false
}

// Reaches lists the nodes whose lanes in flight an access outside any
// lane to word idx (a store with store) conflicts with: each touched
// the word, and the lane or the access stores. The slice is reused by
// the next call.
func (l *EpochLog) Reaches(idx uint32, store bool) []int {
	l.reach = l.reach[:0]
	mk := l.mem.Marks(idx)
	if mk == nil {
		return l.reach
	}
	for m := mk.Conflicting(store); m != 0; m &= m - 1 {
		if s := l.slots[bits.TrailingZeros64(m)]; s.touched(idx, !store) {
			l.reach = append(l.reach, s.node)
		}
	}
	return l.reach
}

// touched reports whether lane s touched word idx, storing to it when
// stored.
func (s *laneSave) touched(idx uint32, stored bool) bool {
	for i := range s.words {
		if t := &s.words[i]; t.Idx == idx && (t.Stored || !stored) {
			return true
		}
	}
	return false
}

// LanePort is implemented by memory ports whose clock-free cache hits
// can run inside a lane: LaneHit is FusedHit that also refuses a hit
// on an interlocked line and a store to a page that is not resident,
// and records the hit in l (NoteHit) before committing it.
type LanePort interface {
	LaneHit(addr uint32, store bool, value isa.Word, l *EpochLog) (prev isa.Word, full, ok bool)
}
