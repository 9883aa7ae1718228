package mem

import (
	"fmt"
	"math/rand"
	"testing"

	"april/internal/isa"
)

// feThenAccess is what proc.FEAccess did before AccessSync: read the
// full/empty bit, decide, then access — each step its own bounds check
// and page lookup. It is the oracle AccessSync must equal, so it is
// spelled in the single-purpose accessors and shares no code with it.
func feThenAccess(m *Memory, addr uint32, store, trapOnSync bool, value isa.Word) (prev isa.Word, full, ok bool, err error) {
	if full, err = m.FE(addr); err != nil {
		return 0, false, false, err
	}
	if trapOnSync && store == full {
		return 0, full, false, nil
	}
	if prev, err = m.LoadWord(addr); err == nil && store {
		err = m.StoreWord(addr, value)
	}
	return prev, full, err == nil, err
}

// TestAccessSyncEqualsFEThenAccess walks every cell of (resident /
// non-resident page) x (load / store) x (trap-on-sync on / off) x
// (full / empty): same results, same word and bit afterwards, same
// residency. An empty word on a non-resident page cannot exist (only a
// resident page holds an empty bit), so that column has three of its
// four rows; the fourth cell of interest there is the store that
// faults, which must materialize nothing.
func TestAccessSyncEqualsFEThenAccess(t *testing.T) {
	const addr = 0x4_2008
	for _, resident := range []bool{true, false} {
		for _, store := range []bool{false, true} {
			for _, trap := range []bool{false, true} {
				for _, full := range []bool{true, false} {
					if !resident && !full {
						continue
					}
					name := fmt.Sprintf("resident=%v/store=%v/trap=%v/full=%v", resident, store, trap, full)
					build := func() *Memory {
						m := New(1 << 20)
						if resident {
							m.MustStore(addr, 0x77)
							m.MustSetFE(addr, full)
						}
						return m
					}
					got, want := build(), build()
					gp, gf, gok, gerr := got.AccessSync(addr, store, trap, 0x99)
					wp, wf, wok, werr := feThenAccess(want, addr, store, trap, 0x99)
					if gp != wp || gf != wf || gok != wok || gerr != nil || werr != nil {
						t.Errorf("%s: AccessSync = (%#x, %v, %v, %v), FE then Access = (%#x, %v, %v, %v)",
							name, gp, gf, gok, gerr, wp, wf, wok, werr)
					}
					if fault := trap && store == full; gok == fault {
						t.Errorf("%s: ok = %v, but sync fault expected: %v", name, gok, fault)
					}
					if got.MustLoad(addr) != want.MustLoad(addr) || got.MustFE(addr) != want.MustFE(addr) ||
						got.Resident() != want.Resident() {
						t.Errorf("%s: afterwards word %#x full %v resident %d, want %#x %v %d", name,
							got.MustLoad(addr), got.MustFE(addr), got.Resident(),
							want.MustLoad(addr), want.MustFE(addr), want.Resident())
					}
					if !resident && store && trap && (got.Resident() != 0 || got.PageResident(addr)) {
						t.Errorf("%s: a faulting store materialized a page", name)
					}
				}
			}
		}
	}
}

// The same equality over a random stream on one pair of memories, so
// residency and bits accumulate, plus the two error cases: the errors
// carry the same text and nothing is touched.
func TestAccessSyncRandomStream(t *testing.T) {
	got, want := New(1<<20), New(1<<20)
	r := rand.New(rand.NewSource(15))
	for i := 0; i < 50000; i++ {
		addr := uint32(r.Intn(1<<20/WordBytes/64)) * 64 * WordBytes // one word in 64: many pages, repeats
		store, trap, value := r.Intn(2) == 0, r.Intn(2) == 0, isa.Word(r.Uint32())
		if r.Intn(8) == 0 {
			full := r.Intn(2) == 0
			got.MustSetFE(addr, full)
			want.MustSetFE(addr, full)
		}
		gp, gf, gok, gerr := got.AccessSync(addr, store, trap, value)
		wp, wf, wok, werr := feThenAccess(want, addr, store, trap, value)
		if gp != wp || gf != wf || gok != wok || gerr != nil || werr != nil {
			t.Fatalf("step %d at %#x store=%v trap=%v: (%#x, %v, %v, %v) vs (%#x, %v, %v, %v)",
				i, addr, store, trap, gp, gf, gok, gerr, wp, wf, wok, werr)
		}
		if got.Resident() != want.Resident() {
			t.Fatalf("step %d: %d pages resident, want %d", i, got.Resident(), want.Resident())
		}
	}
	for _, addr := range []uint32{0x1002, 1 << 20, ^uint32(0) &^ 3} {
		_, _, gok, gerr := got.AccessSync(addr, true, false, 1)
		_, _, _, werr := feThenAccess(want, addr, true, false, 1)
		if gok || gerr == nil || werr == nil || gerr.Error() != werr.Error() {
			t.Errorf("bad address %#x: AccessSync = (ok %v, %v), want error %v", addr, gok, gerr, werr)
		}
	}
	if got.Resident() != want.Resident() {
		t.Errorf("refused accesses changed residency: %d vs %d", got.Resident(), want.Resident())
	}
}

var benchSink uint64

// BenchmarkAccessSync is the per-layer cost (ROADMAP item 1a) of one
// checked, full/empty-aware load or store on resident pages: what every
// memory port pays per access below the cache. Addresses uniform over
// 16 MiB, one store in four, trap-on-sync on every other access.
func BenchmarkAccessSync(b *testing.B) {
	const span = 16 << 20
	m := New(64 << 20)
	for a := uint32(0); a < span; a += pageWords * WordBytes {
		m.MustStore(a, 1)
	}
	r := rand.New(rand.NewSource(1))
	addrs := make([]uint32, 1<<14)
	for i := range addrs {
		addrs[i] = uint32(r.Intn(span/WordBytes)) * WordBytes
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prev, _, _, err := m.AccessSync(addrs[i&(len(addrs)-1)], i&3 == 0, i&1 == 0, isa.Word(i))
		if err != nil {
			b.Fatal(err)
		}
		benchSink += uint64(prev)
	}
}
