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
func epochProcs(t *testing.T, asm string, n int) ([]*Processor, *mem.Memory) {
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

// TestEpochLogConflicts pins rule (b) on the lanes' word index: a lane
// refuses an op exactly when another lane in flight touched the word
// and one of the two touches stores. One lane may load and store its
// own words freely, and any number of lanes may load a word nobody
// stores. Each case's lanes begin in order and all stay in flight.
func TestEpochLogConflicts(t *testing.T) {
	const asm = `
        ldnt r20, [r10+0]
        stnt [r10+0], r21
`
	const ld, st = 0, 1
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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ps, m := epochProcs(t, asm, len(tc.lanes))
			if err := m.StoreWord(0x1000, 0); err != nil { // make the page resident
				t.Fatal(err)
			}
			l := NewLaneLog(len(ps), m)
			refused := false
			for i, pcs := range tc.lanes {
				p := ps[i]
				p.Engine.Frames[0].R[10] = 0x1000
				l.save(p, p.Engine.Active(), len(pcs))
				p.epoch = l
				for _, pc := range pcs {
					f := p.Engine.Active()
					f.PC = pc
					if !p.fusedMem(f, &p.micro[pc]) {
						refused = true
					}
				}
				p.epoch = nil
			}
			if refused != tc.refuse {
				t.Errorf("refused %v, want %v", refused, tc.refuse)
			}
			// An access outside the lanes reaches every lane that
			// touched the word when it stores, and the storing ones
			// when it loads.
			for _, store := range []bool{false, true} {
				var want []int
				for i, pcs := range tc.lanes {
					stored, touched := false, len(pcs) > 0
					for _, pc := range pcs {
						stored = stored || pc == st
					}
					if refused && i == len(tc.lanes)-1 {
						touched, stored = false, false // its refused op left no entry
						for _, pc := range pcs[:len(pcs)-1] {
							touched, stored = true, stored || pc == st
						}
					}
					if touched && (store || stored) {
						want = append(want, i)
					}
				}
				got := append([]int(nil), l.Reaches(0x1000/mem.WordBytes, store)...)
				sort.Ints(got)
				if len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) {
					t.Errorf("an access outside the lanes (store %v) reaches %v, want %v", store, got, want)
				}
			}
			// Retired lanes leave nothing behind.
			for i := range ps {
				l.Retire(i)
			}
			if l.used != 0 || len(l.Reaches(0x1000/mem.WordBytes, true)) != 0 {
				t.Errorf("%d index entries after every lane retired", l.used)
			}
		})
	}
}

// TestEpochLogRefusesAndCutsBack runs a lane of stores across many
// words, enough to grow the word index, then cuts it back: Cut
// restores every word, register, counter and Kinds entry the lane
// changed and replays the kept ops exactly, and the index holds the
// replay's words only. A store to a page that is
// not resident is refused before it materializes the page.
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

	// Enough words to grow the index past its first size.
	const n = 5 * minIndex
	l := NewLaneLog(1, m)
	if ran := runLane(p, n, l); ran != n {
		t.Fatalf("ran %d ops, want %d", ran, n)
	}
	if l.used != n/5 || len(l.index) <= minIndex {
		t.Fatalf("%d index entries in %d slots, want %d in more than %d", l.used, len(l.index), n/5, minIndex)
	}
	after := *f
	l.Cut(p, 10)
	if l.used != 2 {
		t.Errorf("%d index entries after a cut to 10 ops, want 2", l.used)
	}
	l.Cut(p, 0)
	if *f != before || p.Kinds != kinds || p.Stats != stats || p.Engine.Globals[2] != 7 || l.used != 0 {
		t.Fatal("a cut to the lane's start left processor state or index entries")
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
