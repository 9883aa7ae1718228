// Package mem implements APRIL's word-addressed memory. Every 32-bit
// data word carries an additional synchronization bit — the full/empty
// bit of Section 3.3 of the paper — stored here as a bitmap beside each
// page's words.
// Full/empty bits are the substrate for fine-grain word-level
// synchronization: loads may trap on empty locations, stores on full
// ones, and the bits double as cheap locks for the run-time system
// (e.g. for lazy task creation markers).
package mem

import (
	"errors"
	"fmt"

	"april/internal/isa"
)

// Errors reported by memory accesses. Unaligned accesses normally never
// reach memory — the processor traps on them first (they signal future
// pointers used as addresses) — so these indicate simulator bugs or
// hand-written test programs.
var (
	ErrUnaligned  = errors.New("mem: unaligned word access")
	ErrOutOfRange = errors.New("mem: address out of range")
)

// WordBytes is the size of a machine word in bytes.
const WordBytes = 4

// Memory is a word-addressed physical memory with one full/empty bit
// per word. In ALEWIFE the physical memory is distributed among the
// nodes; the Distribution type maps addresses to their home nodes while
// the backing store stays flat (the simulator equivalent of the
// globally shared address space the controllers synthesize).
//
// A freshly created memory is all zeros with every full/empty bit set
// to full, matching the paper's convention that ordinary (non-
// synchronizing) data lives in full locations and only I-structure
// style slots start out empty.
//
// The store is demand-paged at the granularity the run-time system
// touches it: a thread uses a few hundred words of its 64 KiB stack
// chunk, a node a few of its 256 KiB heap chunk, so the resident unit
// is a 4 KiB page carrying its words and their full/empty bits
// together. The table has two levels — one group slot per 256 KiB
// stretch, 64 page slots per group — so New stays O(size / 256 KiB)
// while residency follows touches. A page that is not resident reads
// as zero and full; only a store or SetFE(empty) materializes one.
// Observable behavior is identical to a flat array.
type Memory struct {
	groups   []*group // indexed by word index >> groupShift; nil = nothing touched
	size     uint32   // in bytes
	resident int      // pages materialized

	// watch, when set, is told of every access through LoadWord,
	// StoreWord and SetFE before it happens (the paths of the run-time
	// system and of block transfers, which bypass the caches), and of
	// the accesses callers announce with Watch. FE is not watched: it
	// reads only a full/empty bit.
	watch func(addr uint32, store bool)
}

// SetWatch installs (or, with nil, removes) the access watch.
func (m *Memory) SetWatch(fn func(addr uint32, store bool)) { m.watch = fn }

// Watch tells the watch, if one is installed, of an access (a write
// with store) about to be made at addr through AccessSync or
// AccessPlain: the perfect-memory processor ports.
func (m *Memory) Watch(addr uint32, store bool) {
	if m.watch != nil {
		m.watch(addr, store)
	}
}

type group [groupPages]*page

type page struct {
	words [pageWords]isa.Word
	fe    [pageWords / 64]uint64 // 1 bit per word; 1 = full
	marks Marks
}

// Marks are a resident page's lane marks: one bit per lane slot of the
// epoch engine's log (proc.EpochLog), set while the lane holding the
// slot is in flight and has touched (Touched) or stored to (Stored) a
// word of the page. They are host bookkeeping, never part of an image:
// a page is installed, and made resident, with no marks.
type Marks struct {
	Touched, Stored uint64
}

// Conflicting returns the slots whose marks an access to the page (a
// store with store) may conflict with: those that touched it, for a
// store; those that stored to it, for a load.
func (mk *Marks) Conflicting(store bool) uint64 {
	if store {
		return mk.Touched
	}
	return mk.Stored
}

const (
	pageShift  = 10 // 1<<10 words: a 4 KiB page
	pageWords  = 1 << pageShift
	pageMask   = pageWords - 1
	groupShift = pageShift + 6 // 64 pages: a 256 KiB group
	groupWords = 1 << groupShift
	groupPages = groupWords / pageWords
)

// New creates a memory of the given size in bytes (rounded up to a
// multiple of 64 words). All words are zero and full.
func New(size uint32) *Memory {
	nw := (int(size/WordBytes) + 63) &^ 63
	return &Memory{
		groups: make([]*group, (nw+groupWords-1)/groupWords),
		size:   uint32(nw * WordBytes),
	}
}

// full reports the full/empty bit of word index idx, which p holds.
func (p *page) full(idx uint32) bool {
	return p.fe[(idx&pageMask)/64]&(1<<(idx%64)) != 0
}

// find returns the page holding word index idx, or nil when it is not
// resident.
func (m *Memory) find(idx uint32) *page {
	if g := m.groups[idx>>groupShift]; g != nil {
		return g[idx>>pageShift%groupPages]
	}
	return nil
}

// page materializes the page holding word index idx: zero words, every
// full/empty bit full. It runs once per page, so it stays out of line
// and out of the accessors' hot paths.
//
//go:noinline
func (m *Memory) page(idx uint32) *page {
	g := m.groups[idx>>groupShift]
	if g == nil {
		g = new(group)
		m.groups[idx>>groupShift] = g
	}
	p := g[idx>>pageShift%groupPages]
	if p == nil {
		p = new(page)
		for i := range p.fe {
			p.fe[i] = ^uint64(0)
		}
		g[idx>>pageShift%groupPages] = p
		m.resident++
	}
	return p
}

// access returns word idx and its full/empty bit as they were, and
// stores value when store is set.
func (p *page) access(idx uint32, store bool, value isa.Word) (prev isa.Word, full bool) {
	prev, full = p.words[idx&pageMask], p.full(idx)
	if store {
		p.words[idx&pageMask] = value
	}
	return prev, full
}

// Size returns the memory size in bytes.
func (m *Memory) Size() uint32 { return m.size }

// InRange reports whether a word access at addr would pass the bounds
// check (alignment aside). The clock-free access paths use it to hand
// out-of-range accesses — which must abort the run with the exact
// reference error — back to the per-op path.
func (m *Memory) InRange(addr uint32) bool {
	return addr/WordBytes < m.size/WordBytes
}

// PageResident reports whether the page holding addr is already
// materialized (false for out-of-range addresses). A store to a
// non-resident page allocates the page as a side effect.
func (m *Memory) PageResident(addr uint32) bool {
	idx := addr / WordBytes
	return idx < m.size/WordBytes && m.find(idx) != nil
}

func (m *Memory) check(addr uint32) (uint32, error) {
	if addr%WordBytes != 0 {
		return 0, fmt.Errorf("%w: %#x", ErrUnaligned, addr)
	}
	idx := addr / WordBytes
	if idx >= m.size/WordBytes {
		return 0, fmt.Errorf("%w: %#x (size %#x)", ErrOutOfRange, addr, m.size)
	}
	return idx, nil
}

// LoadWord reads the word at byte address addr.
func (m *Memory) LoadWord(addr uint32) (isa.Word, error) {
	idx, err := m.check(addr)
	if err != nil {
		return 0, err
	}
	if m.watch != nil {
		m.watch(addr, false)
	}
	if p := m.find(idx); p != nil {
		return p.words[idx&pageMask], nil
	}
	return 0, nil
}

// StoreWord writes the word at byte address addr.
func (m *Memory) StoreWord(addr uint32, w isa.Word) error {
	idx, err := m.check(addr)
	if err != nil {
		return err
	}
	if m.watch != nil {
		m.watch(addr, true)
	}
	m.page(idx).words[idx&pageMask] = w
	return nil
}

// FE returns the full/empty bit of the word at addr (true = full).
func (m *Memory) FE(addr uint32) (bool, error) {
	idx, err := m.check(addr)
	if err != nil {
		return false, err
	}
	if p := m.find(idx); p != nil {
		return p.full(idx), nil
	}
	return true, nil
}

// SetFE sets the full/empty bit of the word at addr.
func (m *Memory) SetFE(addr uint32, full bool) error {
	idx, err := m.check(addr)
	if err != nil {
		return err
	}
	if m.watch != nil {
		m.watch(addr, true)
	}
	bit := uint64(1) << (idx % 64)
	if full {
		// Avoid materializing a page to set a bit that is already set.
		if p := m.find(idx); p != nil {
			p.fe[(idx&pageMask)/64] |= bit
		}
	} else {
		m.page(idx).fe[(idx&pageMask)/64] &^= bit
	}
	return nil
}

// Access performs a load or a store whatever the word's full/empty bit,
// returning the prior value and the prior bit: AccessSync with no
// synchronization precondition.
//
// For a load (store == false) the value argument is ignored.
func (m *Memory) Access(addr uint32, store bool, value isa.Word) (prev isa.Word, full bool, err error) {
	prev, full, _, err = m.AccessSync(addr, store, false, value)
	return prev, full, err
}

// AccessSync is the primitive every memory port builds the Table 2
// operations from: one bounds check and one page lookup read the word's
// full/empty bit, decide whether the access happens, and perform it.
// With trapOnSync a load of an empty word or a store to a full one is a
// synchronization fault — ok is false, full is the bit that refused it,
// and nothing is stored (a store that faults on a page that is not
// resident materializes nothing: such a page reads full). Otherwise the
// load or store happens and prev and full are the word and the bit as
// they were.
func (m *Memory) AccessSync(addr uint32, store, trapOnSync bool, value isa.Word) (prev isa.Word, full, ok bool, err error) {
	idx, err := m.check(addr)
	if err != nil {
		return 0, false, false, err
	}
	p := m.find(idx)
	if p == nil {
		if !store || trapOnSync {
			return 0, true, !store, nil
		}
		p = m.page(idx)
	}
	if full = p.full(idx); trapOnSync && store == full {
		return 0, full, false, nil
	}
	prev = p.words[idx&pageMask]
	if store {
		p.words[idx&pageMask] = value
	}
	return prev, full, true, nil
}

// AccessPlain is Access for a pre-validated address (aligned and in
// range — callers check with InRange) with no full/empty side effects:
// the fused execution tier's fast path for plain-flavored loads and
// stores on the perfect-memory port. idx is the word index
// (addr / WordBytes). Behavior matches FE followed by Access exactly:
// a page that is not resident reads zero and full, and a store
// materializes it.
func (m *Memory) AccessPlain(idx uint32, store bool, value isa.Word) (prev isa.Word, full bool) {
	p := m.find(idx)
	if p == nil {
		if !store {
			return 0, true
		}
		p = m.page(idx)
	}
	return p.access(idx, store, value)
}

// AccessResident is AccessPlain for a caller that can undo a store but
// not a page: a store to a page that is not resident stores nothing and
// returns ok=false. Loads always complete.
func (m *Memory) AccessResident(idx uint32, store bool, value isa.Word) (prev isa.Word, full, ok bool) {
	p := m.find(idx)
	if p == nil {
		return 0, true, !store
	}
	prev, full = p.access(idx, store, value)
	return prev, full, true
}

// Marks returns the lane marks of the page holding word index idx, or
// nil when it is not resident.
func (m *Memory) Marks(idx uint32) *Marks {
	if p := m.find(idx); p != nil {
		return &p.marks
	}
	return nil
}

// LaneAccess is AccessResident for the epoch lane holding the slot
// bit, in one page lookup: it returns the page's marks and makes the
// access unless another slot's mark could conflict with it, that is
// another slot stored to the page, or touched it and the access
// stores. ok=false means nothing was accessed: with nil marks the page
// is not resident; otherwise the caller decides on the marking slots'
// words, and makes the access through AccessResident if it may.
func (m *Memory) LaneAccess(idx uint32, bit uint64, store bool, value isa.Word) (prev isa.Word, full bool, mk *Marks, ok bool) {
	p := m.find(idx)
	if p == nil {
		return 0, false, nil, false
	}
	if p.marks.Conflicting(store)&^bit != 0 {
		return 0, false, &p.marks, false
	}
	prev, full = p.access(idx, store, value)
	return prev, full, &p.marks, true
}

// Fault is the panic value raised by the Must* accessors: a runtime
// access to simulator-internal state went outside the simulated arena.
// Carrying the operation, address, and memory size lets the machine's
// run loop recover it into a structured crash report instead of a
// bare stack trace.
type Fault struct {
	Op   string // "load", "store", "fe", "set-fe"
	Addr uint32
	Size uint32 // simulated memory size
	Err  error  // the underlying ErrUnaligned / ErrOutOfRange
}

func (f *Fault) Error() string {
	return fmt.Sprintf("mem: %s at %#x (memory size %#x): %v", f.Op, f.Addr, f.Size, f.Err)
}

func (f *Fault) Unwrap() error { return f.Err }

func (m *Memory) fault(op string, addr uint32, err error) {
	panic(&Fault{Op: op, Addr: addr, Size: m.size, Err: err})
}

// MustLoad and MustStore panic with a *Fault on error; they are for
// simulator-internal structures whose addresses are known valid
// (run-time system state).
func (m *Memory) MustLoad(addr uint32) isa.Word {
	w, err := m.LoadWord(addr)
	if err != nil {
		m.fault("load", addr, err)
	}
	return w
}

func (m *Memory) MustStore(addr uint32, w isa.Word) {
	if err := m.StoreWord(addr, w); err != nil {
		m.fault("store", addr, err)
	}
}

// MustFE and MustSetFE are the panicking full/empty accessors.
func (m *Memory) MustFE(addr uint32) bool {
	b, err := m.FE(addr)
	if err != nil {
		m.fault("fe", addr, err)
	}
	return b
}

func (m *Memory) MustSetFE(addr uint32, full bool) {
	if err := m.SetFE(addr, full); err != nil {
		m.fault("set-fe", addr, err)
	}
}
