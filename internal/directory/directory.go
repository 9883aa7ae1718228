// Package directory implements ALEWIFE's full-map directory-based
// cache coherence (Chaiken et al. [5]): each block of distributed
// shared memory has a home node whose directory entry records the
// global state — uncached, read-shared by a set of nodes, or held
// exclusively by one owner. The controller logic that exchanges the
// protocol messages lives in package sim; this package provides the
// entries, the sharer sets, and the message vocabulary.
package directory

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

// State is a block's global state at its home directory.
type State uint8

const (
	Uncached State = iota
	Shared
	Exclusive
)

func (s State) String() string {
	switch s {
	case Uncached:
		return "uncached"
	case Shared:
		return "shared"
	case Exclusive:
		return "exclusive"
	}
	return "?"
}

// Sharers is a set of node ids. The first 64 nodes live in an inline
// word so machines up to 64 processors (the paper's largest ALEWIFE
// configuration) never allocate; larger machines spill into the lazily
// grown overflow words.
type Sharers struct {
	word0 uint64   // nodes 0..63
	rest  []uint64 // rest[i] covers nodes 64*(i+1) .. 64*(i+2)-1
}

// Add inserts node.
func (s *Sharers) Add(node int) {
	if node < 64 {
		s.word0 |= 1 << node
		return
	}
	w := node/64 - 1
	for len(s.rest) <= w {
		s.rest = append(s.rest, 0)
	}
	s.rest[w] |= 1 << (node % 64)
}

// Remove deletes node.
func (s *Sharers) Remove(node int) {
	if node < 64 {
		s.word0 &^= 1 << node
		return
	}
	if w := node/64 - 1; w < len(s.rest) {
		s.rest[w] &^= 1 << (node % 64)
	}
}

// Has reports membership.
func (s *Sharers) Has(node int) bool {
	if node < 64 {
		return s.word0&(1<<node) != 0
	}
	w := node/64 - 1
	return w < len(s.rest) && s.rest[w]&(1<<(node%64)) != 0
}

// Count returns the set size.
func (s *Sharers) Count() int {
	n := bits.OnesCount64(s.word0)
	for _, w := range s.rest {
		n += bits.OnesCount64(w)
	}
	return n
}

// CountExcept returns the set size not counting node (whether or not
// it is a member) — the common "how many other caches hold this"
// question, without a closure.
func (s *Sharers) CountExcept(node int) int {
	n := s.Count()
	if s.Has(node) {
		n--
	}
	return n
}

// ForEach visits members in ascending order.
func (s *Sharers) ForEach(f func(node int)) {
	for w := s.word0; w != 0; w &= w - 1 {
		f(bits.TrailingZeros64(w))
	}
	for wi, w := range s.rest {
		for ; w != 0; w &= w - 1 {
			f((wi+1)*64 + bits.TrailingZeros64(w))
		}
	}
}

// AppendMembers appends the members in ascending order to buf,
// skipping except (pass a negative node to keep everyone). It is the
// allocation-free form of ForEach for hot paths: the closure-less
// signature lets buf stay on the caller's reusable scratch.
func (s *Sharers) AppendMembers(buf []int, except int) []int {
	for w := s.word0; w != 0; w &= w - 1 {
		if n := bits.TrailingZeros64(w); n != except {
			buf = append(buf, n)
		}
	}
	for wi, w := range s.rest {
		for ; w != 0; w &= w - 1 {
			if n := (wi+1)*64 + bits.TrailingZeros64(w); n != except {
				buf = append(buf, n)
			}
		}
	}
	return buf
}

// Clear empties the set.
func (s *Sharers) Clear() {
	s.word0 = 0
	s.rest = s.rest[:0]
}

// String renders the set.
func (s *Sharers) String() string {
	var parts []string
	s.ForEach(func(n int) { parts = append(parts, fmt.Sprint(n)) })
	return "{" + strings.Join(parts, ",") + "}"
}

// Entry is one block's directory state.
type Entry struct {
	State   State
	Sharers Sharers
	Owner   int
}

// dirSlot is one slot of the open-addressed entry table.
type dirSlot struct {
	block uint32
	live  bool
	entry Entry
}

// Directory holds the entries homed at one node. Entries live inline
// in an open-addressed hash table (linear probing, power-of-two size,
// multiplicative hash): looking one up is an array index instead of a
// map access plus a pointer chase, and creating one allocates nothing
// beyond the amortized table growth. The table is sized from the
// demand-paged footprint — it grows geometrically with the number of
// distinct blocks actually touched, never with the address space — and
// entries are never deleted (an entry that returns to Uncached keeps
// its slot), so no tombstone machinery is needed.
type Directory struct {
	slots []dirSlot // power-of-two length
	shift uint      // 32 - log2(len(slots)), for the multiplicative hash
	used  int

	Stats
}

// Stats counts the protocol work a directory's home node does.
type Stats struct {
	ReadMisses  uint64 `counter:"dir_read_misses"`
	WriteMisses uint64 `counter:"dir_write_misses"`
	InvalsSent  uint64 `counter:"dir_invals_sent"`
	Fetches     uint64 `counter:"dir_fetches"`
	Writebacks  uint64 `counter:"dir_writebacks"`
}

// New creates an empty directory.
func New() *Directory {
	d := &Directory{}
	d.initTable(64)
	return d
}

func (d *Directory) initTable(n int) {
	d.slots = make([]dirSlot, n)
	shift := uint(32)
	for m := n; m > 1; m >>= 1 {
		shift--
	}
	d.shift = shift
}

// slotFor returns the index of block's slot: its live slot if present,
// otherwise the empty slot where it would be inserted.
func (d *Directory) slotFor(block uint32) int {
	mask := uint32(len(d.slots) - 1)
	i := (block * 2654435761) >> d.shift // Fibonacci hashing
	for {
		s := &d.slots[i]
		if !s.live || s.block == block {
			return int(i)
		}
		i = (i + 1) & mask
	}
}

// resize rehashes the live entries into a table of n slots.
func (d *Directory) resize(n int) {
	old := d.slots
	d.initTable(n)
	for i := range old {
		if old[i].live {
			d.slots[d.slotFor(old[i].block)] = old[i]
		}
	}
}

// Entry returns (creating) the entry for block. The pointer aliases
// the table: it stays valid only until the next Entry call that
// inserts a new block (table growth moves entries), so callers must
// not hold it across insertions.
func (d *Directory) Entry(block uint32) *Entry {
	i := d.slotFor(block)
	if !d.slots[i].live {
		if (d.used+1)*4 > len(d.slots)*3 { // keep load below 3/4
			d.resize(2 * len(d.slots))
			i = d.slotFor(block)
		}
		s := &d.slots[i]
		s.live = true
		s.block = block
		s.entry = Entry{Owner: -1}
		d.used++
	}
	return &d.slots[i].entry
}

// Probe returns the entry if it exists, under the same aliasing rule
// as Entry.
func (d *Directory) Probe(block uint32) (*Entry, bool) {
	s := &d.slots[d.slotFor(block)]
	if !s.live {
		return nil, false
	}
	return &s.entry, true
}

// Entries counts allocated entries.
func (d *Directory) Entries() int { return d.used }

// Blocks lists every block with an allocated entry, ascending, so
// inspection and invariant-check output is deterministic.
func (d *Directory) Blocks() []uint32 {
	out := make([]uint32, 0, d.used)
	for i := range d.slots {
		if d.slots[i].live {
			out = append(out, d.slots[i].block)
		}
	}
	slices.Sort(out)
	return out
}

// MsgKind enumerates the coherence protocol messages.
type MsgKind uint8

const (
	// Requester -> home.
	ReadReq  MsgKind = iota
	WriteReq         // also upgrade
	WBNotify         // eviction writeback of a dirty exclusive block

	// Home -> requester.
	Data   // read reply, shared copy
	DataEx // write reply, exclusive copy

	// Home -> third parties and their replies.
	Inv      // invalidate a shared copy
	InvAck   // -> home
	Fetch    // recall the exclusive copy from its owner
	FetchAck // owner -> home, carries the data

	// Cache management (Section 3.4).
	FlushWB  // FLUSH writeback -> home
	FlushAck // home -> flusher (decrements the fence counter)
)

var kindNames = [...]string{
	ReadReq: "RREQ", WriteReq: "WREQ", WBNotify: "WB",
	Data: "DATA", DataEx: "DATAEX",
	Inv: "INV", InvAck: "INVACK", Fetch: "FETCH", FetchAck: "FETCHACK",
	FlushWB: "FLUSHWB", FlushAck: "FLUSHACK",
}

func (k MsgKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("msg(%d)", uint8(k))
}

// CarriesData reports whether the message includes a memory block (and
// so pays the data packet size).
func (k MsgKind) CarriesData() bool {
	switch k {
	case Data, DataEx, FetchAck, WBNotify, FlushWB:
		return true
	}
	return false
}

// Msg is one protocol message.
type Msg struct {
	Kind      MsgKind
	Block     uint32
	From      int
	Requester int  // original requester for three-party transactions
	Write     bool // Fetch: recall for a writer (invalidate) vs reader (downgrade)
}

// Valid reports whether m is a message nodes nodes could exchange: a
// known kind, between node ids in range.
func (m *Msg) Valid(nodes int) bool {
	return m.Kind <= FlushAck && m.From >= 0 && m.From < nodes && m.Requester >= 0 && m.Requester < nodes
}

// Size returns the packet size in flits: a two-flit header plus the
// block payload for data-bearing messages.
func (m Msg) Size(blockBytes uint32) int {
	if m.Kind.CarriesData() {
		return 2 + int(blockBytes/4)
	}
	return 2
}
