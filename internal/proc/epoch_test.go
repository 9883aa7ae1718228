package proc

import (
	"reflect"
	"sort"
	"testing"

	"april/internal/core"
	"april/internal/isa"
	"april/internal/mem"
)

// epochProcs builds n compiled-tier processors running asm over one
// perfect memory, each with one loaded thread.
func epochProcs(t testing.TB, asm string, n int) ([]*Processor, *mem.Memory) {
	t.Helper()
	prog, err := isa.Assemble(asm)
	if err != nil {
		t.Fatal(err)
	}
	micro := prog.Predecode()
	m := mem.New(1 << 20)
	ps := make([]*Processor, n)
	for i := range ps {
		e := core.NewEngine(4, core.TrapEntryCycles+core.SwitchHandlerCyclesSPARC)
		e.Frames[0].ThreadID = i
		p := New(i, e, prog, &PerfectPort{Mem: m})
		p.SetCompile(micro, new(bool))
		ps[i] = p
	}
	return ps, m
}

// TestEpochLogConflicts pins rule (b) on the lanes' page marks: a lane
// refuses an op exactly when another lane in flight touched the same
// word and one of the two touches stores. Another word of a page some
// lane touched never refuses, one lane may load and store its own
// words freely, any number of lanes may load a word nobody stores, and
// a lane refuses a load from a page that is not resident. Each case's
// lanes begin in order and all stay in flight.
func TestEpochLogConflicts(t *testing.T) {
	const asm = `
        ldnt r20, [r10+0]
        stnt [r10+0], r21
        ldnt r20, [r10+4]
        stnt [r10+4], r21
        ldnt r20, [r11+0]
`
	const ld, st, ld2, st2, fresh = 0, 1, 2, 3, 4
	const page, other = 0x1000, 0x20000 // resident; never touched
	word := map[uint32]uint32{ld: page, st: page, ld2: page + 4, st2: page + 4, fresh: other}
	cases := []struct {
		name   string
		lanes  [][]uint32 // per lane: the PCs it runs, one op each
		refuse bool
	}{
		{"load-load", [][]uint32{{ld}, {ld}}, false},
		{"store-load", [][]uint32{{st}, {ld}}, true},
		{"load-store", [][]uint32{{ld}, {st}}, true},
		{"store-store", [][]uint32{{st}, {st}}, true},
		{"own-words", [][]uint32{{st, ld, st}, {}}, false},
		{"three-readers", [][]uint32{{ld}, {ld}, {ld}}, false},
		{"readers-then-store", [][]uint32{{ld}, {ld}, {st}}, true},
		{"other-word-load-load", [][]uint32{{ld}, {ld2}}, false},
		{"other-word-store-load", [][]uint32{{st}, {ld2}}, false},
		{"other-word-load-store", [][]uint32{{ld}, {st2}}, false},
		{"other-word-store-store", [][]uint32{{st}, {st2}}, false},
		{"other-word-then-same", [][]uint32{{st2, ld}, {ld2, st}}, true},
		{"fresh-page-load", [][]uint32{{fresh}}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ps, m := epochProcs(t, asm, len(tc.lanes))
			if err := m.StoreWord(page, 0); err != nil { // make the page resident
				t.Fatal(err)
			}
			l := NewLaneLog(len(ps), m)
			refused := false
			// The words each lane touched (true: stored) by the ops it
			// ran: a refused op touches nothing.
			touched := make([]map[uint32]bool, len(tc.lanes))
			for i, pcs := range tc.lanes {
				p := ps[i]
				p.Engine.Frames[0].R[10], p.Engine.Frames[0].R[11] = page, other
				l.save(p, p.Engine.Active(), len(pcs))
				p.epoch = l
				touched[i] = map[uint32]bool{}
				for _, pc := range pcs {
					f := p.Engine.Active()
					f.PC = pc
					if !p.fusedMem(f, &p.micro[pc]) {
						refused = true
						continue
					}
					touched[i][word[pc]] = touched[i][word[pc]] || pc == st || pc == st2
				}
				p.epoch = nil
			}
			if refused != tc.refuse {
				t.Errorf("refused %v, want %v", refused, tc.refuse)
			}
			if m.PageResident(other) {
				t.Error("a lane's load made a page resident")
			}
			// An access outside the lanes reaches, of the lanes that
			// touched its word, every one when it stores and the
			// storing ones when it loads.
			for _, w := range []uint32{page, page + 4, other} {
				for _, store := range []bool{false, true} {
					var want []int
					for i := range tc.lanes {
						if stored, ok := touched[i][w]; ok && (store || stored) {
							want = append(want, i)
						}
					}
					got := append([]int(nil), l.Reaches(w/mem.WordBytes, store)...)
					sort.Ints(got)
					if len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) {
						t.Errorf("an access outside the lanes to %#x (store %v) reaches %v, want %v", w, store, got, want)
					}
				}
			}
			// Retired lanes leave nothing behind.
			for i := range ps {
				l.Retire(i)
			}
			if mk := m.Marks(page / mem.WordBytes); *mk != (mem.Marks{}) || len(l.Reaches(page/mem.WordBytes, true)) != 0 {
				t.Errorf("page marks %+v after every lane retired", *mk)
			}
		})
	}
}

// TestEpochLogSlots runs 65 lanes at once on perfect memory: the first
// 64 take the slots and access their words; the 65th holds none and
// refuses its memory op but runs a register op. Once a lane retires,
// the next lane takes its slot.
func TestEpochLogSlots(t *testing.T) {
	const asm = `
        ldnt r20, [r10+0]
        add  r21, r21, 4
`
	ps, m := epochProcs(t, asm, 65)
	if err := m.StoreWord(0x1000, 0); err != nil {
		t.Fatal(err)
	}
	l := NewLaneLog(len(ps), m)
	run := func(p *Processor, pc uint32) bool {
		p.Engine.Frames[0].R[10] = isa.Word(0x1000 + 4*p.ID)
		l.save(p, p.Engine.Active(), 2)
		p.epoch = l
		defer func() { p.epoch = nil }()
		f := p.Engine.Active()
		f.PC = pc
		return p.fusedOp(f, &p.micro[pc])
	}
	for _, p := range ps[:64] {
		if !run(p, 0) {
			t.Fatalf("lane %d refused a load of its own word", p.ID)
		}
	}
	if mk := m.Marks(0x1000 / mem.WordBytes); mk.Touched != ^uint64(0) || mk.Stored != 0 {
		t.Fatalf("page marks %+v, want every slot touching and none storing", *mk)
	}
	if run(ps[64], 0) {
		t.Error("a lane without a slot made a memory access")
	}
	if !run(ps[64], 1) {
		t.Error("a lane without a slot refused a register op")
	}
	l.Retire(64)
	l.Retire(3)
	if !run(ps[64], 0) {
		t.Error("a lane refused its load with a slot free")
	}
	if got := l.Reaches((0x1000+4*64)/mem.WordBytes, true); !reflect.DeepEqual(got, []int{64}) {
		t.Errorf("a store to the 65th lane's word reaches %v, want [64]", got)
	}
	for i := range ps {
		l.Retire(i)
	}
	if mk := m.Marks(0x1000 / mem.WordBytes); *mk != (mem.Marks{}) {
		t.Errorf("page marks %+v after every lane retired", *mk)
	}
}

// TestEpochLogRefusesAndCutsBack runs a lane of stores and loads
// across two pages, then cuts it back: Cut restores every word,
// register, counter and Kinds entry the lane changed and replays the
// kept ops exactly, and only the replay's pages keep the lane's marks.
// A store to a page that is not resident is refused before it
// materializes the page.
func TestEpochLogRefusesAndCutsBack(t *testing.T) {
	const asm = `
loop:   stnt [r10+0], r21
        ldnt r22, [r10+0]
        add  r10, r10, 4
        add  r21, r21, 4
        ba   loop
`
	ps, m := epochProcs(t, asm, 1)
	p := ps[0]
	for a := uint32(0x1000); a < 0x3000; a += 4 {
		if err := m.StoreWord(a, isa.Word(a)); err != nil {
			t.Fatal(err)
		}
	}
	f := p.Engine.Active()
	f.R[10], f.R[21] = 0x1000, isa.MakeFixnum(1)
	p.Engine.Globals[2] = 7
	before, kinds, stats := *f, p.Kinds, p.Stats

	// Every word of both pages, stored and loaded.
	const n = 5 * 2048
	l := NewLaneLog(1, m)
	marks := func() [2]mem.Marks {
		return [2]mem.Marks{*m.Marks(0x1000 / mem.WordBytes), *m.Marks(0x2000 / mem.WordBytes)}
	}
	mine := mem.Marks{Touched: 1, Stored: 1}
	if ran := runLane(p, n, l); ran != n {
		t.Fatalf("ran %d ops, want %d", ran, n)
	}
	if got := len(l.Touches(0)); got != 2*n/5 {
		t.Fatalf("%d touches, want %d: one per access", got, 2*n/5)
	}
	if got := marks(); got != [2]mem.Marks{mine, mine} {
		t.Fatalf("page marks %+v after the lane, want both pages marked", got)
	}
	after := *f
	l.Cut(p, 10)
	if got := marks(); len(l.Touches(0)) != 4 || got != [2]mem.Marks{mine, {}} {
		t.Errorf("%d touches, page marks %+v after a cut to 10 ops, want 4 on the first page", len(l.Touches(0)), got)
	}
	l.Cut(p, 0)
	if *f != before || p.Kinds != kinds || p.Stats != stats || p.Engine.Globals[2] != 7 || marks() != [2]mem.Marks{} {
		t.Fatal("a cut to the lane's start left processor state or page marks")
	}
	for a := uint32(0x1000); a < 0x3000; a += 4 {
		if w := m.MustLoad(a); w != isa.Word(a) {
			t.Fatalf("word %#x = %#x after the cut, want %#x", a, w, a)
		}
	}
	if ran := runLane(p, n, l); ran != n || *f != after {
		t.Fatalf("a second run of the lane ran %d ops to a different state", ran)
	}
	l.Retire(0)
	if marks() != [2]mem.Marks{} {
		t.Error("a retired lane left page marks")
	}

	// A first touch: the page at 0x10000 was never stored to.
	f.R[10] = 0x10000
	resident := m.Resident()
	if ran := runLane(p, 8, l); ran != 0 {
		t.Fatalf("store to a fresh page: ran %d, want a refusal", ran)
	}
	if m.Resident() != resident || m.PageResident(0x10000) {
		t.Error("a refused first touch materialized its page")
	}
}

// runLane runs p's next ops as a lane of up to n ops in l and returns
// how many ran.
func runLane(p *Processor, n int, l *EpochLog) int {
	ran, _, _, _, _ := p.RunAhead(uint64(n), nil, l)
	return ran
}

// BenchmarkLaneAccess prices one perfect-memory lane access
// (EpochLog.access), the lane retired and begun again every 32
// accesses: own-page on a page no other lane marked (loads and stores
// in turn); shared-page-load and shared-page-store on a page another
// lane in flight marked with 8 stores or 8 loads of other words, so
// each access reads that lane's touch list.
func BenchmarkLaneAccess(b *testing.B) {
	for _, bc := range []struct {
		name          string
		other         bool // another lane marked the page
		store, shared bool // the access stores; always (else in turn)
	}{
		{"own-page", false, false, false},
		{"shared-page-load", true, false, true},
		{"shared-page-store", true, true, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			ps, m := epochProcs(b, "ldnt r20, [r10+0]\n", 2)
			if err := m.StoreWord(0x1000, 0); err != nil {
				b.Fatal(err)
			}
			const base = 0x1000 / mem.WordBytes
			l := NewLaneLog(len(ps), m)
			if bc.other {
				l.save(ps[1], ps[1].Engine.Active(), 8)
				for k := uint32(0); k < 8; k++ {
					if _, _, ok := l.access(base+100+k, !bc.store, 0); !ok {
						b.Fatal("the other lane was refused")
					}
				}
			}
			p := ps[0]
			l.save(p, p.Engine.Active(), 32)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%32 == 0 && i > 0 {
					l.Retire(0)
					l.save(p, p.Engine.Active(), 32)
				}
				store := bc.store
				if !bc.shared {
					store = i&1 != 0
				}
				if _, _, ok := l.access(base+uint32(i%32), store, 1); !ok {
					b.Fatal("refused")
				}
			}
		})
	}
}
