package directory

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestSharersBasics(t *testing.T) {
	var s Sharers
	if s.Count() != 0 || s.Has(0) {
		t.Error("fresh set not empty")
	}
	s.Add(3)
	s.Add(70)
	s.Add(3) // idempotent
	if s.Count() != 2 || !s.Has(3) || !s.Has(70) || s.Has(4) {
		t.Errorf("set state wrong: %s", s.String())
	}
	s.Remove(3)
	if s.Count() != 1 || s.Has(3) {
		t.Error("remove failed")
	}
	s.Remove(99) // absent: no-op
	s.Clear()
	if s.Count() != 0 {
		t.Error("clear failed")
	}
}

func TestSharersForEachOrdered(t *testing.T) {
	var s Sharers
	for _, n := range []int{64, 1, 200, 0} {
		s.Add(n)
	}
	var got []int
	s.ForEach(func(n int) { got = append(got, n) })
	want := []int{0, 1, 64, 200}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSharersProperty(t *testing.T) {
	f := func(adds []uint8) bool {
		var s Sharers
		ref := map[int]bool{}
		for _, a := range adds {
			s.Add(int(a))
			ref[int(a)] = true
		}
		if s.Count() != len(ref) {
			return false
		}
		for n := range ref {
			if !s.Has(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDirectoryEntries(t *testing.T) {
	d := New()
	e := d.Entry(42)
	if e.State != Uncached || e.Owner != -1 {
		t.Errorf("fresh entry %+v", e)
	}
	e.State = Exclusive
	e.Owner = 7
	if again := d.Entry(42); again != e {
		t.Error("Entry not stable")
	}
	if _, ok := d.Probe(43); ok {
		t.Error("Probe invented an entry")
	}
	if d.Entries() != 1 {
		t.Errorf("entries = %d", d.Entries())
	}
}

func TestMsgSizes(t *testing.T) {
	// Control messages are 2 flits; data messages add the block
	// payload (16 B block = 4 words), giving the mix behind Table 4's
	// "average packet size 4".
	req := Msg{Kind: ReadReq}
	if req.Size(16) != 2 {
		t.Errorf("RREQ size %d", req.Size(16))
	}
	data := Msg{Kind: Data}
	if data.Size(16) != 6 {
		t.Errorf("DATA size %d", data.Size(16))
	}
	for _, k := range []MsgKind{Data, DataEx, FetchAck, WBNotify, FlushWB} {
		if !k.CarriesData() {
			t.Errorf("%v should carry data", k)
		}
	}
	for _, k := range []MsgKind{ReadReq, WriteReq, Inv, InvAck, Fetch, FlushAck} {
		if k.CarriesData() {
			t.Errorf("%v should not carry data", k)
		}
	}
}

func TestKindNames(t *testing.T) {
	for k := ReadReq; k <= FlushAck; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has no name", k)
		}
	}
}

func TestBlocksSortedAscending(t *testing.T) {
	d := New()
	// Insertion order scrambled relative to block numbers, with enough
	// blocks to force at least one table growth.
	blocks := []uint32{77, 3, 1029, 5, 64, 2, 500, 12, 9999, 1}
	for i := uint32(0); i < 100; i++ {
		blocks = append(blocks, 2000+i*37)
	}
	for _, b := range blocks {
		d.Entry(b)
	}
	got := d.Blocks()
	if len(got) != len(blocks) {
		t.Fatalf("Blocks() returned %d blocks, want %d", len(got), len(blocks))
	}
	if !slices.IsSorted(got) {
		t.Errorf("Blocks() not ascending: %v", got)
	}
	want := append([]uint32(nil), blocks...)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("Blocks() = %v, want %v", got, want)
	}
}

// modelEntry is an entry as TestMatchesMapModel's model keeps it: the
// sharers a plain set, so the model shares no code with Sharers.
type modelEntry struct {
	State   State
	Owner   int32
	sharers map[int]bool
}

// members lists the model's sharers ascending, skipping except.
func (m modelEntry) members(except int) []int {
	var ids []int
	for id := range m.sharers {
		if id != except {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

// TestMatchesMapModel runs random directory traffic against a plain
// map of block to entry: Entry and Probe of new and old blocks, state
// and owner updates, sharer Add/Remove/Has/Clear/AppendMembers with
// node ids up to 7999 (deep in the overflow words), Reserve, and
// DumpEntries, which must list the model's blocks in ascending order
// with equal entries. A table sized by Reserve takes its entries
// without growing.
func TestMatchesMapModel(t *testing.T) {
	const nodes = 8000
	rng := rand.New(rand.NewPCG(1, 2))
	for round := range 20 {
		d := New()
		if _, ok := d.Probe(0); ok || d.Slots() != 0 {
			t.Fatalf("round %d: a new directory holds a table or an entry", round)
		}
		if d.Reserve(0); d.Slots() != 0 {
			t.Fatalf("round %d: Reserve(0) allocated %d slots", round, d.Slots())
		}
		model := map[uint32]modelEntry{}
		fresh := func() modelEntry { return modelEntry{Owner: -1, sharers: map[int]bool{}} }
		var pool []uint32
		pick := func() uint32 {
			switch {
			case len(pool) > 0 && rng.IntN(3) > 0:
				return pool[rng.IntN(len(pool))] // an old block
			case rng.IntN(2) == 0:
				return rng.Uint32N(1 << 12) // dense, colliding
			}
			return rng.Uint32N(^uint32(0)) // anywhere but the unkeyed top
		}
		check := func(b uint32, e *Entry, what string) {
			t.Helper()
			want, ok := model[b]
			if !ok {
				want = fresh()
			}
			got, exp := e.Sharers.AppendMembers(nil, -1), want.members(-1)
			if e.State != want.State || e.Owner != want.Owner || !slices.Equal(got, exp) || e.Sharers.Count() != len(exp) {
				t.Fatalf("round %d: %s(%#x) = {%v %d %v}, model {%v %d %v}",
					round, what, b, e.State, e.Owner, got, want.State, want.Owner, exp)
			}
		}
		for range 1000 {
			switch op := rng.IntN(50); {
			case op < 20: // Entry, then change it and the model alike
				b := pick()
				e := d.Entry(b)
				check(b, e, "Entry")
				m, ok := model[b]
				if !ok {
					m = fresh()
					pool = append(pool, b)
				}
				id := rng.IntN(nodes)
				if rng.IntN(2) == 0 {
					id = rng.IntN(64)
				}
				switch rng.IntN(8) {
				case 0:
					e.State = State(rng.IntN(3))
					e.Owner = int32(rng.IntN(nodes+1) - 1)
					m.State, m.Owner = e.State, e.Owner
				case 1, 2, 3:
					e.Sharers.Add(id)
					m.sharers[id] = true
				case 4, 5:
					if ids := m.members(-1); len(ids) > 0 && rng.IntN(2) == 0 {
						id = ids[rng.IntN(len(ids))]
					}
					e.Sharers.Remove(id)
					delete(m.sharers, id)
				case 6:
					e.Sharers.Clear()
					clear(m.sharers)
				case 7:
					if e.Sharers.Has(id) != m.sharers[id] {
						t.Fatalf("round %d: block %#x Has(%d) = %v, model %v", round, b, id, e.Sharers.Has(id), m.sharers[id])
					}
				}
				model[b] = m
				check(b, e, "Entry")
				if got, want := e.Sharers.AppendMembers(nil, id), m.members(id); !slices.Equal(got, want) {
					t.Fatalf("round %d: block %#x AppendMembers except %d = %v, model %v", round, b, id, got, want)
				}
			case op < 40: // Probe, of a block the model may or may not hold
				b := pick()
				e, ok := d.Probe(b)
				if _, want := model[b]; ok != want {
					t.Fatalf("round %d: Probe(%#x) found %v, model %v", round, b, ok, want)
				}
				if ok {
					check(b, e, "Probe")
				}
			case op < 48: // Reserve, then fill up to it without growing
				n := len(model) + rng.IntN(16)
				d.Reserve(n)
				slots := d.Slots()
				for len(model) < n {
					b := pick()
					if _, ok := model[b]; !ok {
						check(b, d.Entry(b), "Entry")
						model[b] = fresh()
						pool = append(pool, b)
					}
				}
				if d.Slots() != slots {
					t.Fatalf("round %d: a table reserved for %d entries grew from %d to %d slots", round, n, slots, d.Slots())
				}
			default: // DumpEntries and Entries against the model
				if d.Entries() != len(model) {
					t.Fatalf("round %d: %d entries, model %d", round, d.Entries(), len(model))
				}
				var dumped []uint32
				d.DumpEntries(func(b uint32, e *Entry) {
					check(b, e, "DumpEntries")
					dumped = append(dumped, b)
				})
				want := make([]uint32, 0, len(model))
				for b := range model {
					want = append(want, b)
				}
				if slices.Sort(want); !slices.Equal(dumped, want) {
					t.Fatalf("round %d: DumpEntries listed %v, model %v", round, dumped, want)
				}
			}
		}
	}
}

// An entry and its key fit a 28-byte slot.
func TestSlotBytes(t *testing.T) {
	if n := 4 + unsafe.Sizeof(Entry{}); n != 28 {
		t.Errorf("a table slot takes %d bytes, want 28", n)
	}
}

// TestDumpEntriesAscending: entries come out in ascending block order
// whatever the probe layout, each with its own entry.
func TestDumpEntriesAscending(t *testing.T) {
	d := New()
	var want []uint32
	for i := uint32(0); i < 300; i++ {
		b := i * 2654435761 // distinct, scrambled relative to insertion
		d.Entry(b).Owner = int32(i)
		want = append(want, b)
	}
	slices.Sort(want)
	var got []uint32
	d.DumpEntries(func(block uint32, e *Entry) {
		if p, _ := d.Probe(block); p != e {
			t.Fatalf("block %#x: dumped entry is not the table's", block)
		}
		got = append(got, block)
	})
	if !slices.Equal(got, want) {
		t.Errorf("DumpEntries order %v, want %v", got, want)
	}
}

// Steady-state directory traffic — entry lookups on resident blocks and
// sharer-set updates within the inline 64-node word — must not allocate.
func TestSteadyStateOpsAllocFree(t *testing.T) {
	d := New()
	for b := uint32(0); b < 128; b++ {
		d.Entry(b)
	}
	var targets []int
	ops := func() {
		e := d.Entry(77)
		e.Sharers.Add(5)
		e.Sharers.Add(63)
		if e.Sharers.CountExcept(5) != 1 {
			t.Fatal("CountExcept wrong")
		}
		targets = e.Sharers.AppendMembers(targets[:0], 5)
		if len(targets) != 1 || targets[0] != 63 {
			t.Fatalf("AppendMembers = %v", targets)
		}
		e.Sharers.Remove(5)
		e.Sharers.Remove(63)
		if _, ok := d.Probe(77); !ok {
			t.Fatal("Probe missed a resident block")
		}
	}
	ops() // size the scratch buffer
	if n := testing.AllocsPerRun(1000, ops); n != 0 {
		t.Errorf("steady-state directory ops allocate %v/op, want 0", n)
	}
}

// BenchmarkSharers prices one sharer-set round — add a reader, list
// the other members (the invalidation fan-out), drop it — with node
// ids drawn from the inline word, from a 1000-node machine's and from
// an 8000-node machine's overflow words.
func BenchmarkSharers(b *testing.B) {
	for _, r := range []struct {
		name   string
		lo, hi int
	}{{"inline", 0, 64}, {"overflow1000", 64, 1000}, {"overflow8000", 64, 8000}} {
		b.Run(r.name, func(b *testing.B) {
			rng := rand.New(rand.NewPCG(1, 2))
			ids := make([]int, 1<<10)
			for i := range ids {
				ids[i] = r.lo + rng.IntN(r.hi-r.lo)
			}
			var s Sharers
			for _, id := range ids[:8] {
				s.Add(id)
			}
			var buf []int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := ids[i&(len(ids)-1)]
				s.Add(id)
				buf = s.AppendMembers(buf[:0], id)
				s.Remove(id)
			}
		})
	}
}
