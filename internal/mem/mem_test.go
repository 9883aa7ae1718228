package mem

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"april/internal/isa"
)

func TestLoadStoreRoundTrip(t *testing.T) {
	m := New(1 << 16)
	if err := m.StoreWord(0x100, isa.MakeFixnum(42)); err != nil {
		t.Fatal(err)
	}
	w, err := m.LoadWord(0x100)
	if err != nil {
		t.Fatal(err)
	}
	if isa.FixnumValue(w) != 42 {
		t.Errorf("got %v, want fixnum 42", w)
	}
}

func TestFreshMemoryIsZeroAndFull(t *testing.T) {
	m := New(4096)
	for addr := uint32(0); addr < 4096; addr += 4 {
		if w := m.MustLoad(addr); w != 0 {
			t.Fatalf("fresh memory at %#x = %#x, want 0", addr, w)
		}
		if !m.MustFE(addr) {
			t.Fatalf("fresh memory at %#x not full", addr)
		}
	}
}

func TestAlignmentAndRangeErrors(t *testing.T) {
	m := New(4096)
	if _, err := m.LoadWord(2); !errors.Is(err, ErrUnaligned) {
		t.Errorf("LoadWord(2) err = %v, want ErrUnaligned", err)
	}
	if err := m.StoreWord(4097, 0); err == nil {
		t.Error("StoreWord past end succeeded")
	}
	if _, err := m.LoadWord(1 << 20); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("LoadWord out of range err = %v, want ErrOutOfRange", err)
	}
	if _, err := m.FE(3); !errors.Is(err, ErrUnaligned) {
		t.Errorf("FE(3) err = %v, want ErrUnaligned", err)
	}
	if err := m.SetFE(1<<20, true); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("SetFE out of range err = %v, want ErrOutOfRange", err)
	}
}

func TestFullEmptyBits(t *testing.T) {
	m := New(4096)
	addr := uint32(0x80)
	m.MustSetFE(addr, false)
	if m.MustFE(addr) {
		t.Error("bit still full after SetFE(false)")
	}
	// Neighbors unaffected.
	if !m.MustFE(addr-4) || !m.MustFE(addr+4) {
		t.Error("SetFE disturbed neighboring bits")
	}
	m.MustSetFE(addr, true)
	if !m.MustFE(addr) {
		t.Error("bit still empty after SetFE(true)")
	}
}

func TestFEBitsIndependentProperty(t *testing.T) {
	m := New(1 << 14)
	nWords := uint32(1<<14) / 4
	f := func(idxs []uint16) bool {
		// Empty a set of words; all others must stay full.
		emptied := map[uint32]bool{}
		for _, i := range idxs {
			a := (uint32(i) % nWords) * 4
			m.MustSetFE(a, false)
			emptied[a] = true
		}
		for a := uint32(0); a < nWords*4; a += 4 {
			if m.MustFE(a) == emptied[a] {
				return false
			}
		}
		for a := range emptied {
			m.MustSetFE(a, true)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAccessCombined(t *testing.T) {
	m := New(4096)
	addr := uint32(0x40)
	m.MustStore(addr, isa.MakeFixnum(7))
	m.MustSetFE(addr, false)

	prev, full, err := m.Access(addr, false, 0)
	if err != nil || full || isa.FixnumValue(prev) != 7 {
		t.Errorf("load Access = (%v, %v, %v), want (7, empty, nil)", prev, full, err)
	}

	prev, full, err = m.Access(addr, true, isa.MakeFixnum(9))
	if err != nil || full || isa.FixnumValue(prev) != 7 {
		t.Errorf("store Access = (%v, %v, %v)", prev, full, err)
	}
	if got := m.MustLoad(addr); isa.FixnumValue(got) != 9 {
		t.Errorf("after store Access, word = %v, want 9", got)
	}
	// Access does not itself change the F/E bit; flavors do that above it.
	if m.MustFE(addr) {
		t.Error("Access changed the full/empty bit")
	}
}

func TestArena(t *testing.T) {
	a := NewArena(0x1000, 0x1040)
	p1 := a.Alloc(16)
	p2 := a.Alloc(8)
	if p1 != 0x1000 || p2 != 0x1010 {
		t.Errorf("allocs at %#x, %#x", p1, p2)
	}
	if p1%8 != 0 || p2%8 != 0 {
		t.Error("allocations not 8-byte aligned")
	}
	// Unaligned request still yields aligned next pointer.
	p3 := a.Alloc(4)
	p4 := a.Alloc(8)
	if p4%8 != 0 {
		t.Errorf("p4 = %#x not aligned after odd-size alloc %#x", p4, p3)
	}
	// Exhaustion returns 0.
	if p := a.Alloc(1 << 20); p != 0 {
		t.Errorf("oversized alloc returned %#x, want 0", p)
	}
	if a.Remaining() > 0x40 {
		t.Errorf("Remaining = %d", a.Remaining())
	}
}

func TestDefaultLayout(t *testing.T) {
	l := DefaultLayout(64 << 20)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if l.StaticBase != isa.HeapBase {
		t.Errorf("static base %#x", l.StaticBase)
	}
	if l.HeapStart >= l.End {
		t.Error("no heap space")
	}
}

func TestDistribution(t *testing.T) {
	d := Distribution{Nodes: 4, BlockSize: 16}
	if d.Home(0) != 0 || d.Home(16) != 1 || d.Home(32) != 2 || d.Home(48) != 3 || d.Home(64) != 0 {
		t.Error("interleave wrong")
	}
	// All words of a block share a home.
	for addr := uint32(0); addr < 1024; addr += 4 {
		if d.Home(addr) != d.Home(d.BlockBase(addr)) {
			t.Fatalf("addr %#x home differs from its block base", addr)
		}
	}
	// Single node: everything is local.
	d1 := Distribution{Nodes: 1, BlockSize: 16}
	if d1.Home(12345&^3) != 0 {
		t.Error("single-node home must be 0")
	}
}

func TestInvariantMustAccessorsRaiseTypedFault(t *testing.T) {
	m := New(1024)
	cases := []struct {
		op  string
		run func()
	}{
		{"load", func() { m.MustLoad(4096) }},
		{"store", func() { m.MustStore(4096, 1) }},
		{"fe", func() { m.MustFE(4096) }},
		{"set-fe", func() { m.MustSetFE(4097, false) }},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				r := recover()
				f, ok := r.(*Fault)
				if !ok {
					t.Fatalf("%s: panic value %T (%v), want *Fault", tc.op, r, r)
				}
				if f.Op != tc.op {
					t.Errorf("fault op %q, want %q", f.Op, tc.op)
				}
				if f.Addr != 4096 && f.Addr != 4097 {
					t.Errorf("%s: fault addr %#x, want the faulting address", tc.op, f.Addr)
				}
				if !errors.Is(f, ErrOutOfRange) && !errors.Is(f, ErrUnaligned) {
					t.Errorf("%s: fault does not unwrap to a mem error: %v", tc.op, f.Err)
				}
			}()
			tc.run()
		}()
	}
}

// The two-level page table: 4 KiB pages in 256 KiB groups. Words on
// either side of a page boundary and of a group boundary are
// independent, and each first touch makes exactly one page resident.
func TestPageAndGroupBoundaries(t *testing.T) {
	const pageBytes, groupBytes = PageWords * WordBytes, 256 << 10
	m := New(1 << 20)
	resident := 0
	for _, edge := range []uint32{pageBytes, 3 * pageBytes, groupBytes, 3 * groupBytes} {
		lo, hi := edge-WordBytes, edge
		m.MustStore(lo, 0x11)
		resident++
		if m.Resident() != resident || !m.PageResident(lo) || m.PageResident(hi) {
			t.Fatalf("edge %#x: store below it: resident %d (want %d), below %v, above %v",
				edge, m.Resident(), resident, m.PageResident(lo), m.PageResident(hi))
		}
		if w, full := m.MustLoad(hi), m.MustFE(hi); w != 0 || !full {
			t.Errorf("edge %#x: untouched side reads (%#x, %v)", edge, w, full)
		}
		m.MustSetFE(hi, false)
		resident++
		if m.Resident() != resident || !m.PageResident(hi) {
			t.Fatalf("edge %#x: SetFE(empty) above it: resident %d, want %d", edge, m.Resident(), resident)
		}
		m.MustStore(hi, 0x22)
		if prev, full, err := m.Access(lo, true, 0x33); err != nil || prev != 0x11 || !full {
			t.Errorf("edge %#x: Access below = (%#x, %v, %v)", edge, prev, full, err)
		}
		if prev, full := m.AccessPlain(hi/WordBytes, false, 0); prev != 0x22 || full {
			t.Errorf("edge %#x: AccessPlain above = (%#x, %v)", edge, prev, full)
		}
		if m.MustLoad(lo) != 0x33 || !m.MustFE(lo) {
			t.Errorf("edge %#x: word below disturbed", edge)
		}
	}
	if m.Resident() != resident {
		t.Errorf("resident %d, want %d", m.Resident(), resident)
	}
}

// A memory whose size is not a multiple of 256 KiB: the last group —
// and here the last page — is only partly inside it.
func TestPartialLastGroup(t *testing.T) {
	const size = 256<<10 + 2*PageWords*WordBytes + 256
	m := New(size)
	if m.Size() != size {
		t.Fatalf("size %d, want %d", m.Size(), size)
	}
	last := uint32(size - WordBytes)
	m.MustStore(last, 7)
	m.MustSetFE(last, false)
	if m.MustLoad(last) != 7 || m.MustFE(last) || !m.PageResident(last) {
		t.Error("last word of a partly covered group does not hold its value")
	}
	if err := m.StoreWord(size, 1); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("store one word past the end: %v, want ErrOutOfRange", err)
	}
	if m.InRange(size) || m.PageResident(size) {
		t.Error("address past the end reported in range or resident")
	}
	lastPage := last / WordBytes / PageWords
	fresh := New(size)
	if _, _, err := fresh.InstallPage(lastPage); err != nil {
		t.Errorf("InstallPage(%d), the partly covered last page: %v", lastPage, err)
	}
	if _, _, err := fresh.InstallPage(lastPage); err == nil {
		t.Error("InstallPage of a resident page succeeded")
	}
	// The table has slots up to the end of the group; the memory does not.
	if _, _, err := fresh.InstallPage(lastPage + 1); err == nil {
		t.Error("InstallPage past the end of memory (inside the last group) succeeded")
	}
	if fresh.Resident() != 1 {
		t.Errorf("resident %d after one install, want 1", fresh.Resident())
	}
}

// Reads and SetFE(full) answer (0, full) from untouched memory without
// materializing anything, and AccessResident refuses a store there.
func TestUntouchedStaysUntouched(t *testing.T) {
	m := New(1 << 20)
	for addr := uint32(0); addr < 1<<20; addr += 1000 * WordBytes {
		if w, err := m.LoadWord(addr); err != nil || w != 0 {
			t.Fatalf("LoadWord(%#x) = %#x, %v", addr, w, err)
		}
		if full, err := m.FE(addr); err != nil || !full {
			t.Fatalf("FE(%#x) = %v, %v", addr, full, err)
		}
		if err := m.SetFE(addr, true); err != nil {
			t.Fatal(err)
		}
		if prev, full, err := m.Access(addr, false, 99); err != nil || prev != 0 || !full {
			t.Fatalf("Access load (%#x) = %#x, %v, %v", addr, prev, full, err)
		}
		if prev, full := m.AccessPlain(addr/WordBytes, false, 99); prev != 0 || !full {
			t.Fatalf("AccessPlain load (%#x) = %#x, %v", addr, prev, full)
		}
		if prev, full, ok := m.AccessResident(addr/WordBytes, false, 99); !ok || prev != 0 || !full {
			t.Fatalf("AccessResident load (%#x) = %#x, %v, %v", addr, prev, full, ok)
		}
		if _, _, ok := m.AccessResident(addr/WordBytes, true, 99); ok {
			t.Fatalf("AccessResident stored to the untouched page of %#x", addr)
		}
		if m.PageResident(addr) {
			t.Fatalf("page of %#x resident after reads only", addr)
		}
	}
	if m.Resident() != 0 {
		t.Errorf("%d pages resident after reads only", m.Resident())
	}
	m.DumpResident(func(id uint32, _ *[PageWords]isa.Word, _ *[PageFEWords]uint64) {
		t.Errorf("DumpResident visited page %d of an untouched memory", id)
	})
}

// DumpResident -> Reset -> InstallPage reproduces contents and
// residency exactly, including a page that SetFE(empty) alone made
// resident (zero words, one empty bit).
func TestDumpInstallRoundTrip(t *testing.T) {
	m := New(2 << 20)
	m.MustStore(0x1004, 0xabc)
	m.MustSetFE(0x1004, false)
	m.MustStore(0x7fffc, 5)
	const feOnly = 0x123450
	m.MustSetFE(feOnly, false)

	r := New(2 << 20)
	r.MustStore(0x100000, 1) // residue the restore must evict
	r.Reset()
	var ids []uint32
	m.DumpResident(func(id uint32, words *[PageWords]isa.Word, fe *[PageFEWords]uint64) {
		ids = append(ids, id)
		w, f, err := r.InstallPage(id)
		if err != nil {
			t.Fatal(err)
		}
		*w, *f = *words, *fe
	})
	if want := []uint32{0x1004 >> 12, 0x7fffc >> 12, feOnly >> 12}; !slices.Equal(ids, want) {
		t.Fatalf("dumped pages %v, want %v (ascending)", ids, want)
	}
	if r.Resident() != 3 || r.PageResident(0x100000) {
		t.Errorf("restored residency: %d pages, residue resident %v", r.Resident(), r.PageResident(0x100000))
	}
	for addr := uint32(0); addr < 2<<20; addr += WordBytes {
		if m.MustLoad(addr) != r.MustLoad(addr) || m.MustFE(addr) != r.MustFE(addr) ||
			m.PageResident(addr) != r.PageResident(addr) {
			t.Fatalf("restored memory differs at %#x", addr)
		}
	}
	if r.MustLoad(feOnly) != 0 || r.MustFE(feOnly) || !r.MustFE(feOnly+WordBytes) {
		t.Error("F/E-only page did not keep zero data and its one empty bit")
	}
}
