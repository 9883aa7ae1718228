package directory

import (
	"slices"
	"testing"
	"testing/quick"
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

// TestReserveMatchesGrowth: a table sized for n entries takes n inserts
// without growing, and ends the length growth from an empty table
// reaches — including at the 3/4 load boundaries, where one entry more
// means one doubling more.
func TestReserveMatchesGrowth(t *testing.T) {
	for _, n := range []int{0, 1, 48, 49, 96, 97, 1000, 9241} {
		grown := New()
		for b := uint32(0); b < uint32(n); b++ {
			grown.Entry(b * 7919)
		}
		d := New()
		d.Reserve(n)
		table := &d.slots[0]
		for b := uint32(0); b < uint32(n); b++ {
			d.Entry(b * 7919)
		}
		if &d.slots[0] != table {
			t.Errorf("n=%d: an insert grew the reserved table", n)
		}
		if len(d.slots) != len(grown.slots) {
			t.Errorf("n=%d: reserved table of %d slots, growth reaches %d", n, len(d.slots), len(grown.slots))
		}
		if d.Entries() != n {
			t.Errorf("n=%d: %d entries", n, d.Entries())
		}
	}
	// Reserving on a populated table keeps its entries and never shrinks it.
	d := New()
	for b := uint32(0); b < 100; b++ {
		d.Entry(b).Owner = int(b)
	}
	size := len(d.slots)
	d.Reserve(10)
	if len(d.slots) != size {
		t.Errorf("Reserve(10) resized a %d-slot table to %d", size, len(d.slots))
	}
	d.Reserve(1000)
	for b := uint32(0); b < 100; b++ {
		if e, ok := d.Probe(b); !ok || e.Owner != int(b) {
			t.Fatalf("block %d lost across Reserve", b)
		}
	}
}

// TestDumpEntriesAscending: entries come out in ascending block order
// whatever the probe layout, each with its own entry.
func TestDumpEntriesAscending(t *testing.T) {
	d := New()
	var want []uint32
	for i := uint32(0); i < 300; i++ {
		b := i * 2654435761 // distinct, scrambled relative to insertion
		d.Entry(b).Owner = int(i)
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
