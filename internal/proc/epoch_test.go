package proc

import (
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
	bs := isa.NewBlockSet(prog.Predecode(), 0, true)
	m := mem.New(1 << 20)
	ps := make([]*Processor, n)
	for i := range ps {
		e := core.NewEngine(4, core.TrapEntryCycles+core.SwitchHandlerCyclesSPARC)
		e.Frames[0].ThreadID = i
		p := New(i, e, prog, &PerfectPort{Mem: m})
		p.SetCompile(bs, new(bool))
		ps[i] = p
	}
	return ps, m
}

// TestEpochLogConflicts pins the access table's rule: a chunk aborts
// exactly when a word is touched by two lanes and one of the touches
// stores. One lane may load and store its own words freely, and any
// number of lanes may load a word nobody stores.
func TestEpochLogConflicts(t *testing.T) {
	const asm = `
        ldnt r20, [r10+0]
        stnt [r10+0], r21
`
	const ld, st = 0, 1
	cases := []struct {
		name  string
		lanes [][]uint32 // per lane: the PCs it runs, one op each
		abort bool
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
			l := NewEpochLog(len(ps))
			l.Begin()
			aborted := false
			for i, pcs := range tc.lanes {
				p := ps[i]
				p.Engine.Frames[0].R[10] = 0x1000
				l.save(p, p.Engine.Active(), len(pcs))
				p.epoch = l
				for _, pc := range pcs {
					f := p.Engine.Active()
					f.PC = pc
					if !p.fusedOp(f, &p.micro[pc]) {
						aborted = true
					}
				}
				p.epoch = nil
				if l.abort {
					aborted = true
				}
			}
			if aborted != tc.abort {
				t.Errorf("aborted %v, want %v", aborted, tc.abort)
			}
		})
	}
}

// TestEpochLogAbortsAndRollsBack fills the table from one lane, then
// stores to a page that is not resident: both abort before the op, and
// Rollback restores every word, register, counter and Kinds entry the
// lane changed without materializing the page.
func TestEpochLogAbortsAndRollsBack(t *testing.T) {
	const asm = `
loop:   stnt [r10+0], r21
        add  r10, r10, 4
        add  r21, r21, 4
        ba   loop
`
	ps, m := epochProcs(t, asm, 1)
	p := ps[0]
	for a := uint32(0x1000); a < 0x2000; a += 4 {
		if err := m.StoreWord(a, isa.Word(a)); err != nil {
			t.Fatal(err)
		}
	}
	f := p.Engine.Active()
	f.R[10], f.R[21] = 0x1000, isa.MakeFixnum(1)
	p.Engine.Globals[2] = 7
	before, kinds, stats := *f, p.Kinds, p.Stats

	l := NewEpochLog(1)
	l.Begin()
	ran, abort := p.EpochRun(4*(logFull+10), l)
	if !abort || ran != 4*logFull {
		t.Fatalf("full table: ran %d abort %v, want %d ops then an abort", ran, abort, 4*logFull)
	}
	if p.Stats.StoreCount != stats.StoreCount+logFull {
		t.Fatalf("store count %d, want %d", p.Stats.StoreCount, stats.StoreCount+logFull)
	}
	l.Rollback(p, 0)
	if *f != before || p.Kinds != kinds || p.Stats != stats || p.Engine.Globals[2] != 7 {
		t.Fatal("rollback left processor state changed")
	}
	for a := uint32(0x1000); a < 0x2000; a += 4 {
		if w := m.MustLoad(a); w != isa.Word(a) {
			t.Fatalf("word %#x = %#x after rollback, want %#x", a, w, a)
		}
	}

	// A first touch: the page at 0x10000 was never stored to.
	f.R[10] = 0x10000
	resident := m.Resident()
	l.Begin()
	if ran, abort := p.EpochRun(8, l); ran != 0 || !abort {
		t.Fatalf("store to a fresh page: ran %d abort %v, want 0 and an abort", ran, abort)
	}
	l.Rollback(p, 0)
	if m.Resident() != resident || m.PageResident(0x10000) {
		t.Error("an aborted first touch materialized its page")
	}

	// Without a log the same store runs and materializes the page.
	if ran, _ := p.EpochRun(1, nil); ran != 1 || !m.PageResident(0x10000) {
		t.Errorf("exact run: ran %d, page resident %v", ran, m.PageResident(0x10000))
	}
}
