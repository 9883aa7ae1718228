package proc

// Epoch execution, processor side. The machine's epoch engine (sim's
// epochWindow) proves a multi-cycle safe horizon for a whole group of
// nodes on perfect memory and runs the window in chunks, each node's
// share of a chunk back to back through EpochRun. EpochRun executes
// only ops whose effects provably stay inside the node: the trap-free
// superinstruction handlers (fusedOp), whose only memory op is a plain
// access to perfect memory. Anything else (traps, syscalls, flushes,
// I/O, halts, IPIs, strict-future operands, full/empty flavors) stops
// it before that op with the op untouched; the machine then falls back
// to the per-op path at that exact cycle, preserving reference
// interleaving.
//
// The only channel between nodes inside a window is therefore a plain
// word of perfect memory. An EpochLog records, for one chunk, every
// word each node (lane) touches and the old value of every word it
// stores, and aborts the chunk on a word touched by two lanes with at
// least one store, on a store to a page that is not resident (a word
// can be undone, a page cannot), or when it is full. It also saves
// every lane's starting state, so the machine can roll back an aborted
// chunk, or a lane that ran past the chunk's stop, exactly.

import (
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

// EpochLog is a machine's record of the chunk in progress: the access
// table, the undo log and each lane's starting state. Allocated once
// per machine and reused by every chunk.
type EpochLog struct {
	slots [logSlots]uint64
	gen   uint64
	used  int
	undo  [EpochBudget]undoEntry
	nundo int
	lanes []laneSave // in run order; lanes[:n] began this chunk
	n     int
	abort bool
}

type undoEntry struct {
	idx uint32 // word index
	old isa.Word
}

// laneSave is everything EpochRun can change on a processor, as it was
// when the lane began, plus the lane's span of the undo log.
type laneSave struct {
	frame                               core.Frame
	globals                             [isa.NumGlobalRegs]isa.Word
	instructions, useful, loads, stores uint64
	epochOps                            uint64
	kinds                               [isa.NumMicroKinds]uint64
	undo, end                           int
	ran                                 int
}

// NewEpochLog returns a log for chunks of up to nodes lanes.
func NewEpochLog(nodes int) *EpochLog {
	return &EpochLog{lanes: make([]laneSave, min(nodes, EpochBudget/2))}
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
	*p.Engine.Active() = s.frame
	p.Engine.Globals = s.globals
	p.Stats.Instructions, p.Stats.UsefulCycles = s.instructions, s.useful
	p.Stats.LoadCount, p.Stats.StoreCount = s.loads, s.stores
	p.EpochOps = s.epochOps
	p.Kinds = s.kinds
}

// save begins the next lane with p, whose active frame is f.
func (l *EpochLog) save(p *Processor, f *core.Frame) {
	s := &l.lanes[l.n]
	l.n++
	s.frame = *f
	s.globals = p.Engine.Globals
	s.instructions, s.useful = p.Stats.Instructions, p.Stats.UsefulCycles
	s.loads, s.stores = p.Stats.LoadCount, p.Stats.StoreCount
	s.epochOps = p.EpochOps
	s.kinds = p.Kinds
	s.undo = l.nundo
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
// run as the log's next lane: the lane's starting state is saved and
// its plain accesses recorded, and abort reports that one of them
// aborted the chunk, whose lanes the caller must then roll back. The
// lanes of one chunk run at most EpochBudget ops together.
func (p *Processor) EpochRun(n int, l *EpochLog) (ran int, abort bool) {
	f := p.Engine.Active()
	if l != nil {
		l.save(p, f)
		p.epoch = l
	}
	if !p.Halted && p.ipiHead == len(p.pendingIPI) && f.ThreadID >= 0 && p.blocks != nil {
		m := p.micro
		for ran < n && uint64(f.PC) < uint64(len(m)) {
			u := &m[f.PC]
			// Windows open on perfect memory only, so a memory op skips
			// fusedOp's dispatch and its cache-hit fallback.
			if u.Kind == isa.MMem {
				if !p.fusedMem(f, u) {
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
		s := &l.lanes[l.n-1]
		s.end, s.ran = l.nundo, ran
		abort, l.abort = l.abort, false
	}
	return ran, abort
}
