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
// configuration) never allocate; larger machines spill into overflow
// words kept behind a pointer, so a set that never sees a node id of
// 64 or more costs one word and a nil pointer.
type Sharers struct {
	word0 uint64    // nodes 0..63
	rest  *[]uint64 // (*rest)[i] covers nodes 64*(i+1) .. 64*(i+2)-1; nil until one joins
}

// words returns the overflow words, nil when there are none.
func (s *Sharers) words() []uint64 {
	if s.rest == nil {
		return nil
	}
	return *s.rest
}

// Add inserts node.
func (s *Sharers) Add(node int) {
	if node < 64 {
		s.word0 |= 1 << node
		return
	}
	if s.rest == nil {
		s.rest = new([]uint64)
	}
	w := node/64 - 1
	for len(*s.rest) <= w {
		*s.rest = append(*s.rest, 0)
	}
	(*s.rest)[w] |= 1 << (node % 64)
}

// Remove deletes node.
func (s *Sharers) Remove(node int) {
	if node < 64 {
		s.word0 &^= 1 << node
		return
	}
	if rest, w := s.words(), node/64-1; w < len(rest) {
		rest[w] &^= 1 << (node % 64)
	}
}

// Has reports membership.
func (s *Sharers) Has(node int) bool {
	if node < 64 {
		return s.word0&(1<<node) != 0
	}
	rest, w := s.words(), node/64-1
	return w < len(rest) && rest[w]&(1<<(node%64)) != 0
}

// Count returns the set size.
func (s *Sharers) Count() int {
	n := bits.OnesCount64(s.word0)
	for _, w := range s.words() {
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
	for wi, w := range s.words() {
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
	for wi, w := range s.words() {
		for ; w != 0; w &= w - 1 {
			if n := (wi+1)*64 + bits.TrailingZeros64(w); n != except {
				buf = append(buf, n)
			}
		}
	}
	return buf
}

// Clear empties the set. Overflow words keep their storage for the
// next member past node 63.
func (s *Sharers) Clear() {
	s.word0 = 0
	if s.rest != nil {
		*s.rest = (*s.rest)[:0]
	}
}

// String renders the set.
func (s *Sharers) String() string {
	var parts []string
	s.ForEach(func(n int) { parts = append(parts, fmt.Sprint(n)) })
	return "{" + strings.Join(parts, ",") + "}"
}

// Entry is one block's directory state: 24 bytes, so a table slot (its
// entry and its 4-byte key) is 28.
type Entry struct {
	Sharers Sharers
	Owner   int32 // the Exclusive holder's node id, -1 otherwise
	State   State
}

// minSlots is the table's size at its first entry.
const minSlots = 8

// Directory holds the entries homed at one node, in an open-addressed
// hash table (linear probing, power-of-two size, multiplicative hash):
// looking one up is an array index instead of a map access plus a
// pointer chase, and creating one allocates nothing beyond the
// amortized table growth. The table is two parallel arrays: keys, one
// 4-byte word per slot holding block+1 (0 marks an empty slot), which
// a probe scans, and the entries themselves, which it touches only at
// the slot it finds. Nothing is allocated until the first Entry call,
// so a node whose memory no one misses on costs an empty struct; the
// table then grows geometrically with the number of distinct blocks
// actually touched, never with the address space. Entries are never
// deleted (an entry that returns to Uncached keeps its slot), so no
// tombstone machinery is needed.
type Directory struct {
	keys  []uint32 // block+1 per slot, 0 = empty; power-of-two length
	ents  []Entry  // entry per slot, parallel to keys
	shift uint     // 32 - log2(len(keys)), for the multiplicative hash
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

// New creates an empty directory. It allocates no table.
func New() *Directory { return &Directory{} }

func (d *Directory) initTable(n int) {
	d.keys = make([]uint32, n)
	d.ents = make([]Entry, n)
	d.shift = uint(32 - bits.TrailingZeros(uint(n)))
}

// slotFor returns the index of block's slot: its live slot if present,
// otherwise the empty slot where it would be inserted. The table must
// be allocated.
func (d *Directory) slotFor(block uint32) int {
	mask := uint32(len(d.keys) - 1)
	key := block + 1
	i := (block * 2654435761) >> d.shift // Fibonacci hashing
	for {
		if k := d.keys[i]; k == key || k == 0 {
			return int(i)
		}
		i = (i + 1) & mask
	}
}

// resize rehashes the live entries into a table of n slots.
func (d *Directory) resize(n int) {
	keys, ents := d.keys, d.ents
	d.initTable(n)
	for i, k := range keys {
		if k != 0 {
			j := d.slotFor(k - 1)
			d.keys[j], d.ents[j] = k, ents[i]
		}
	}
}

// sizeFor is the table length growth reaches for n entries: the least
// power of two from minSlots up that keeps the load at most 3/4.
func sizeFor(n int) int {
	size := minSlots
	for n*4 > size*3 {
		size *= 2
	}
	return size
}

// Entry returns (creating) the entry for block, which must not be
// ^uint32(0) (its key would read as an empty slot). The pointer
// aliases the table: it stays valid only until the next Entry call
// that inserts a new block (table growth moves entries), so callers
// must not hold it across insertions.
func (d *Directory) Entry(block uint32) *Entry {
	if block == ^uint32(0) {
		panic("directory: block ^uint32(0) has no key")
	}
	if d.keys == nil {
		d.initTable(minSlots)
	}
	i := d.slotFor(block)
	if d.keys[i] == 0 {
		if n := sizeFor(d.used + 1); n > len(d.keys) {
			d.resize(n)
			i = d.slotFor(block)
		}
		d.keys[i] = block + 1
		d.ents[i] = Entry{Owner: -1}
		d.used++
	}
	return &d.ents[i]
}

// Probe returns the entry if it exists, under the same aliasing rule
// as Entry.
func (d *Directory) Probe(block uint32) (*Entry, bool) {
	if d.used == 0 {
		return nil, false
	}
	i := d.slotFor(block)
	if d.keys[i] == 0 {
		return nil, false
	}
	return &d.ents[i], true
}

// Entries counts allocated entries.
func (d *Directory) Entries() int { return d.used }

// Slots is the table's length: 0 until the first Entry call.
func (d *Directory) Slots() int { return len(d.keys) }

// Blocks lists every block with an allocated entry, ascending, so
// inspection and invariant-check output is deterministic.
func (d *Directory) Blocks() []uint32 {
	out := make([]uint32, 0, d.used)
	for _, k := range d.keys {
		if k != 0 {
			out = append(out, k-1)
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
