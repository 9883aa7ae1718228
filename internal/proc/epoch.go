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
// memory, where no cache keeps lanes apart, the log also indexes the
// touched words: a lane refuses an op that would touch a word another
// lane in flight touched where either side stores (access), and the
// machine asks which lanes an access outside them reaches (Reaches).
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

	// The word index (perfect memory): an open-addressed table, linear
	// probing on word indexes, of every word a lane in flight touched.
	// A lane's entries leave when it retires or is cut back, so the
	// table holds live entries only and grows to stay a quarter full.
	// reach is Reaches' scratch.
	index []uint64 // touchKey values; 0 is an empty slot
	shift uint     // 32 - log2(len(index))
	used  int
	reach []int
}

// touchKey is a word index entry: the word, the lane's node, and
// whether the lane stored to the word.
func touchKey(idx uint32, node int, store bool) uint64 {
	return uint64(idx)<<32 | uint64(node+1)<<1 | uint64(b2u(store))
}

// minIndex is the word index's first size, in slots.
const minIndex = 256

// Touch is one word a lane read or wrote: its index, whether the lane
// stored to it, and (for a store) the word as it was. On perfect memory
// a lane records only its first store to each word, which is all a cut
// needs: the word index holds the rest.
type Touch struct {
	Idx    uint32
	Stored bool
	old    isa.Word
}

// laneSave is everything a lane can change on a processor, as it was
// when the lane began, plus what the lane touched outside it: its
// words, the cache lines it hit, and (keys) the words it entered in the
// word index.
type laneSave struct {
	frame                               core.Frame
	globals                             [isa.NumGlobalRegs]isa.Word
	instructions, useful, loads, stores uint64
	epochOps                            uint64
	kinds                               [isa.NumMicroKinds]uint64

	words []Touch
	lines []cache.LineUndo
	keys  []uint32
}

// NewLaneLog returns a log for the lanes of a machine of the given
// size over mm. Records are allocated as lanes begin and reused once
// retired, so the log grows with the lanes in flight at once, not with
// the machine.
func NewLaneLog(nodes int, mm *mem.Memory) *EpochLog {
	return &EpochLog{
		byNode: make([]*laneSave, nodes), mem: mm,
		index: make([]uint64, minIndex), shift: uint(32 - bits.Len(minIndex-1)),
	}
}

// Touches lists the words node's lane in flight touched, in order (nil
// when it has none): on ALEWIFE every hit, on perfect memory the first
// store to each word.
func (l *EpochLog) Touches(node int) []Touch {
	if s := l.byNode[node]; s != nil {
		return s.words
	}
	return nil
}

// Cut returns p's lane to its first n ops: the lane is rolled back to
// its start (its stores and cache hits undone newest first, its words
// taken out of the index, then the processor restored) and its first n
// ops run again. The replay is exact when nothing outside the lane has
// changed what the lane touched since it ran, which the machine
// guarantees by cutting before any such change.
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
	l.unindex(p.ID, s)
	s.restore(p)
	if ran, _, _, _, _ := p.RunAhead(uint64(n), nil, l); ran != n {
		panic("proc: a cut lane's replay diverged from its first run")
	}
}

// Retire drops node's lane record: the lane is committed.
func (l *EpochLog) Retire(node int) {
	if s := l.byNode[node]; s != nil {
		l.unindex(node, s)
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

// save begins p's lane of up to n ops, whose active frame is f.
func (l *EpochLog) save(p *Processor, f *core.Frame, n int) {
	s := l.byNode[p.ID]
	if s == nil {
		if k := len(l.free); k > 0 {
			s, l.free = l.free[k-1], l.free[:k-1]
		} else {
			s = new(laneSave)
		}
		l.byNode[p.ID] = s
	}
	if cap(s.words) < n { // at most one access per op: sized once
		s.words, s.lines, s.keys = make([]Touch, 0, n), make([]cache.LineUndo, 0, n), make([]uint32, 0, n)
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

// access is fusedMem's plain access for node's lane in progress on
// perfect memory. ok=false means the lane refuses the op and nothing
// was touched: another lane in flight touched the word and one of the
// two stores, or it is a store to a page that is not resident.
// Otherwise the access is made and entered in the index.
//
// Two lanes' entries of one word are both loads: the second would have
// been refused otherwise. So a load that finds its own entry, and any
// access that finds its own stored one, is decided there.
func (l *EpochLog) access(node int, idx uint32, store bool, value isa.Word) (prev isa.Word, full, ok bool) {
	mask := uint32(len(l.index) - 1)
	h := idx * 0x9E3779B1 >> l.shift
	key := touchKey(idx, node, false)
	own := -1
	for ; l.index[h] != 0; h = (h + 1) & mask {
		e := l.index[h]
		switch {
		case e>>32 != uint64(idx):
		case e&^1 == key:
			if !store || e&1 != 0 {
				return l.mem.AccessResident(idx, store, value)
			}
			own = int(h) // a load of its own, about to store
		case store || e&1 != 0:
			return 0, false, false
		}
	}
	if prev, full, ok = l.mem.AccessResident(idx, store, value); !ok {
		return 0, false, false
	}
	s := l.cur
	if own >= 0 {
		l.index[own] |= 1
	} else {
		l.insert(touchKey(idx, node, store), h)
		s.keys = append(s.keys, idx)
	}
	if store {
		s.words = append(s.words, Touch{Idx: idx, Stored: true, old: prev})
	}
	return prev, full, true
}

// insert enters key at the empty slot h ending its chain, growing the
// table first when that would fill more than a quarter of it.
func (l *EpochLog) insert(key uint64, h uint32) {
	if 4*(l.used+1) > len(l.index) {
		old := l.index
		l.index = make([]uint64, 2*len(old))
		l.shift--
		for _, e := range old {
			if e != 0 {
				l.index[l.chainEnd(uint32(e>>32))] = e
			}
		}
		h = l.chainEnd(uint32(key >> 32))
	}
	l.index[h] = key
	l.used++
}

// chainEnd returns the empty slot ending word idx's chain.
func (l *EpochLog) chainEnd(idx uint32) uint32 {
	mask := uint32(len(l.index) - 1)
	h := idx * 0x9E3779B1 >> l.shift
	for l.index[h] != 0 {
		h = (h + 1) & mask
	}
	return h
}

// unindex takes node's lane s's words out of the index, closing each
// gap by moving later entries of the cluster back to their chain.
func (l *EpochLog) unindex(node int, s *laneSave) {
	mask := uint32(len(l.index) - 1)
	for _, idx := range s.keys {
		own := touchKey(idx, node, false)
		h := idx * 0x9E3779B1 >> l.shift
		for l.index[h]&^1 != own {
			h = (h + 1) & mask
		}
		for j := (h + 1) & mask; l.index[j] != 0; j = (j + 1) & mask {
			// The entry at j may fill the gap at h unless its home slot
			// lies cyclically in (h, j].
			if home := uint32(l.index[j]>>32) * 0x9E3779B1 >> l.shift; (j-home)&mask >= (j-h)&mask {
				l.index[h], h = l.index[j], j
			}
		}
		l.index[h] = 0
		l.used--
	}
	s.keys = s.keys[:0]
}

// Reaches lists the nodes whose lanes in flight an access outside any
// lane to word idx (a store with store) conflicts with: each touched
// the word, and the lane or the access stores. The slice is reused by
// the next call.
func (l *EpochLog) Reaches(idx uint32, store bool) []int {
	l.reach = l.reach[:0]
	mask := uint32(len(l.index) - 1)
	for h := idx * 0x9E3779B1 >> l.shift; l.index[h] != 0; h = (h + 1) & mask {
		if e := l.index[h]; e>>32 == uint64(idx) && (store || e&1 != 0) {
			l.reach = append(l.reach, int(uint32(e)>>1)-1)
		}
	}
	return l.reach
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// LanePort is implemented by memory ports whose clock-free cache hits
// can run inside a lane: LaneHit is FusedHit that also refuses a hit
// on an interlocked line and a store to a page that is not resident,
// and records the hit in l (NoteHit) before committing it.
type LanePort interface {
	LaneHit(addr uint32, store bool, value isa.Word, l *EpochLog) (prev isa.Word, full, ok bool)
}
