package proc

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"april/internal/core"
	"april/internal/isa"
	"april/internal/mem"
)

// The per-op oracle for the compiled tier's superinstruction handlers
// (fusedOp, fusedMem, fusedHit): the only per-op code besides the
// reference opcode switch. Every one of the 256 opcode values runs from
// seeded starting states twice — one Step with the compiled tier armed,
// one Step on the bare switch — and the two processors, their memories
// and their ports must end identical.

// fusedMemBytes is the oracle's memory: one page, so ALEWIFE-style
// "hit" addresses, perfect-memory addresses and out-of-range addresses
// are all a few operand values apart.
const fusedMemBytes = 4096

// hitPort is a cache controller stand-in over m: the words below limit
// are cached with write permission and complete as clock-free hits,
// every other access misses.
type hitPort struct {
	m     *mem.Memory
	limit uint32
}

func (h *hitPort) Access(addr uint32, f isa.MemFlavor, store bool, value isa.Word) (MemResult, error) {
	if addr >= h.limit {
		return MemResult{Outcome: RemoteMiss}, nil
	}
	return FEAccess(h.m, addr, f, store, value)
}

func (h *hitPort) Flush(addr uint32) int { return 3 }

func (h *hitPort) FusedHit(addr uint32, store bool, value isa.Word) (isa.Word, bool, bool) {
	if addr >= h.limit {
		return 0, false, false
	}
	prev, full := h.m.AccessPlain(addr/mem.WordBytes, store, value)
	return prev, full, true
}

// ioLog is a deterministic I/O port that records every store.
type ioLog struct{ stores []string }

func (l *ioLog) LoadIO(addr uint32) (isa.Word, int, error) {
	if addr%8 == 4 {
		return 0, 0, fmt.Errorf("io: no device at %#x", addr)
	}
	return isa.Word(addr * 3), 2, nil
}

func (l *ioLog) StoreIO(addr uint32, w isa.Word) (int, error) {
	l.stores = append(l.stores, fmt.Sprintf("%#x<-%#x", addr, w))
	return 1, nil
}

// fusedState is one seeded starting state: every frame's registers and
// PSR, the globals, the frame pointer, the instruction and, for loads
// and stores, the memory.
type fusedState struct {
	inst    isa.Inst
	frames  [4]core.Frame
	globals [isa.NumGlobalRegs]isa.Word
	fp      int
	words   []isa.Word
	full    []bool
}

// operandPool holds the values operands are drawn from: fixnums, zero,
// negatives, futures, other tags, aligned in-range addresses (some
// inside hitPort's cached range, some beyond it), misaligned ones and
// ones past the end of memory.
var operandPool = []isa.Word{
	0, isa.MakeFixnum(1), isa.MakeFixnum(-1), isa.MakeFixnum(7), isa.MakeFixnum(1 << 20),
	0x7ffffffc, 0x80000000, 0xfffffffc,
	isa.MakeFuture(0x100), isa.MakeFuture(0x808), isa.MakeCons(0x200), isa.MakeOther(0x400), 3,
	0x40, 0x100, 0x7f8, 0x800, 0xa00, 0xffc,
	0x102, 0x7fd,
	fusedMemBytes, 0x10000, 0xfffff000,
}

var immPool = []int32{0, 4, 8, -4, 1, 2, 16, 0x200, -0x100, 0x3ff0, 0x7fffffff}

func pick[T any](r *rand.Rand, pool []T) T { return pool[r.Intn(len(pool))] }

func newFusedState(r *rand.Rand, op isa.Opcode) fusedState {
	s := fusedState{
		inst: isa.Inst{
			Op:     op,
			Rd:     uint8(r.Intn(isa.NumRegs)),
			Rs1:    uint8(r.Intn(isa.NumRegs)),
			Rs2:    uint8(r.Intn(isa.NumRegs)),
			UseImm: r.Intn(2) == 0,
			Imm:    pick(r, immPool),
		},
		fp: r.Intn(4),
	}
	if c := op.Class(); c == isa.ClassLoad || c == isa.ClassStore {
		// Only loads and stores read memory; the other ops run over an
		// empty one.
		s.words = make([]isa.Word, fusedMemBytes/mem.WordBytes)
		s.full = make([]bool, len(s.words))
	}
	for i := range s.frames {
		f := &s.frames[i]
		f.ThreadID = i
		f.PC, f.NPC = 0, 1
		for reg := 1; reg < isa.NumFrameRegs; reg++ {
			f.R[reg] = pick(r, operandPool)
		}
		// Condition codes and the full/empty bit at random; future
		// detection on in about two thirds of the states.
		f.PSR = core.PSR(r.Intn(int(core.PSRFull) << 1))
		if r.Intn(3) != 0 {
			f.PSR |= core.PSRFutureTrap
		}
	}
	for i := range s.globals {
		s.globals[i] = pick(r, operandPool)
	}
	for i := range s.words {
		s.words[i] = pick(r, operandPool)
		s.full[i] = r.Intn(4) != 0
	}
	return s
}

// fusedRig is one processor built from a fusedState with everything it
// can touch.
type fusedRig struct {
	p   *Processor
	m   *mem.Memory
	h   *recordingHandler
	io  *ioLog
	hit *hitPort
}

func (s *fusedState) rig(t *testing.T, cached bool) *fusedRig {
	t.Helper()
	m := mem.New(fusedMemBytes)
	for i, w := range s.words {
		addr := uint32(i * mem.WordBytes)
		if err := m.StoreWord(addr, w); err != nil {
			t.Fatal(err)
		}
		if err := m.SetFE(addr, s.full[i]); err != nil {
			t.Fatal(err)
		}
	}
	e := core.NewEngine(len(s.frames), core.TrapEntryCycles+core.SwitchHandlerCyclesSPARC)
	copy(e.Frames, s.frames[:])
	e.Globals = s.globals
	e.SetFP(s.fp)
	rg := &fusedRig{m: m, io: &ioLog{}}
	var port MemPort = &PerfectPort{Mem: m}
	if cached {
		rg.hit = &hitPort{m: m, limit: 0x800}
		port = rg.hit
	}
	rg.p = New(0, e, &isa.Program{Code: []isa.Inst{s.inst}}, port)
	rg.p.IO = rg.io
	// Traps cost a fixed 9 cycles; odd syscall services fail, so the
	// handler's error path is compared too.
	rg.h = &recordingHandler{onTrap: func(p *Processor, t core.Trap) (int, error) {
		if t.Kind == core.TrapSyscall && t.Service%2 != 0 {
			return 9, errors.New("service failed")
		}
		return 9, nil
	}}
	rg.p.Handler = rg.h
	return rg
}

// arm installs the compiled tier the way sim does: the predecoded
// image, the clock-free hit port on a cached machine.
func (rg *fusedRig) arm() {
	rg.p.SetCompile(rg.p.Prog.Predecode(), new(bool))
	if rg.hit != nil {
		rg.p.SetFusedPort(rg.hit)
	}
}

// diff describes how two rigs differ after their Step, or "".
func (rg *fusedRig) diff(o *fusedRig, c, oc int, err, oerr error) string {
	errText := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	p, q := rg.p, o.p
	switch {
	case c != oc:
		return fmt.Sprintf("cycles %d vs %d", c, oc)
	case errText(err) != errText(oerr):
		return fmt.Sprintf("error %q vs %q", errText(err), errText(oerr))
	case !reflect.DeepEqual(p.Engine.Frames, q.Engine.Frames):
		return fmt.Sprintf("frames\n%+v\nvs\n%+v", p.Engine.Frames, q.Engine.Frames)
	case p.Engine.Globals != q.Engine.Globals:
		return fmt.Sprintf("globals %v vs %v", p.Engine.Globals, q.Engine.Globals)
	case p.Engine.FP() != q.Engine.FP():
		return fmt.Sprintf("FP %d vs %d", p.Engine.FP(), q.Engine.FP())
	case p.Stats != q.Stats:
		return fmt.Sprintf("stats %+v vs %+v", p.Stats, q.Stats)
	case p.Kinds != q.Kinds:
		return fmt.Sprintf("kinds %v vs %v", p.Kinds, q.Kinds)
	case p.Halted != q.Halted:
		return fmt.Sprintf("halted %v vs %v", p.Halted, q.Halted)
	case !reflect.DeepEqual(rg.h.traps, o.h.traps):
		return fmt.Sprintf("traps %+v vs %+v", rg.h.traps, o.h.traps)
	case !reflect.DeepEqual(rg.io.stores, o.io.stores):
		return fmt.Sprintf("io stores %v vs %v", rg.io.stores, o.io.stores)
	}
	for a := uint32(0); a < fusedMemBytes; a += mem.WordBytes {
		if w, ow := rg.m.MustLoad(a), o.m.MustLoad(a); w != ow {
			return fmt.Sprintf("word %#x = %#x vs %#x", a, w, ow)
		}
		if f, of := rg.m.MustFE(a), o.m.MustFE(a); f != of {
			return fmt.Sprintf("full/empty of %#x = %v vs %v", a, f, of)
		}
	}
	return ""
}

// TestFusedOpMatchesSwitch runs every opcode value from 48 seeded states
// on perfect memory and on a cache-hit port. Each kind the
// superinstruction handlers take must be taken in some state (and the
// ones with refusal paths refused in another), so the comparison covers
// both sides of every handler.
func TestFusedOpMatchesSwitch(t *testing.T) {
	const states = 48
	handled := []isa.MicroKind{isa.MNop, isa.MAdd, isa.MSub, isa.MAnd, isa.MOr, isa.MXor,
		isa.MSll, isa.MSrl, isa.MSra, isa.MMul, isa.MTagCmp, isa.MMovI, isa.MMem, isa.MBranch,
		isa.MJmpl, isa.MRdPSR, isa.MWrPSR, isa.MRdFP}
	refusable := []isa.MicroKind{isa.MAdd, isa.MSub, isa.MMem, isa.MJmpl}
	for _, cached := range []bool{false, true} {
		name := "perfect"
		if cached {
			name = "cache-hit"
		}
		t.Run(name, func(t *testing.T) {
			var taken, refused [isa.NumMicroKinds]int
			r := rand.New(rand.NewSource(1))
			for op := 0; op < 256; op++ {
				for i := 0; i < states; i++ {
					s := newFusedState(r, isa.Opcode(op))
					fused, ref := s.rig(t, cached), s.rig(t, cached)
					fused.arm()
					c, err := fused.p.Step()
					rc, rerr := ref.p.Step()
					if d := fused.diff(ref, c, rc, err, rerr); d != "" {
						t.Fatalf("%v (state %d): compiled vs switch: %s", s.inst, i, d)
					}
					k := isa.KindOf(isa.Opcode(op))
					if fused.p.InlineSteps > 0 {
						taken[k]++
					} else {
						refused[k]++
					}
				}
			}
			for _, k := range handled {
				if taken[k] == 0 {
					t.Errorf("%v: the superinstruction handlers never took it", k)
				}
			}
			for _, k := range refusable {
				if refused[k] == 0 {
					t.Errorf("%v: the superinstruction handlers never refused it", k)
				}
			}
		})
	}
}
