// Package heap builds and inspects tagged Mul-T objects in simulated
// memory: cons cells, vectors, closures, strings, mutable cells, and
// future objects. The run-time system and the compiler's static-data
// emitter use these helpers; compiled code manipulates the same layouts
// with inline instruction sequences (see package abi for the layout
// contract).
package heap

import (
	"errors"
	"fmt"
	"strings"

	"april/internal/abi"
	"april/internal/isa"
	"april/internal/mem"
)

// ErrOutOfMemory is returned when an arena is exhausted. The
// reproduction does not implement garbage collection (DESIGN.md);
// arenas must be sized for the workload.
var ErrOutOfMemory = errors.New("heap: out of memory")

// Heap allocates objects from an arena over a memory.
type Heap struct {
	Mem   *mem.Memory
	Arena *mem.Arena
}

// New creates a heap over the given memory and arena.
func New(m *mem.Memory, a *mem.Arena) *Heap { return &Heap{Mem: m, Arena: a} }

func (h *Heap) alloc(n uint32) (uint32, error) {
	addr := h.Arena.Alloc(n)
	if addr == 0 {
		return 0, fmt.Errorf("%w: need %d bytes, %d remaining", ErrOutOfMemory, n, h.Arena.Remaining())
	}
	return addr, nil
}

func header(kind int, length int) isa.Word {
	return isa.Word(uint32(length)<<abi.HeaderShift | uint32(kind))
}

// Cons allocates a cons cell.
func (h *Heap) Cons(car, cdr isa.Word) (isa.Word, error) {
	addr, err := h.alloc(abi.ConsBytes)
	if err != nil {
		return 0, err
	}
	h.Mem.MustStore(addr+abi.ConsCarOff, car)
	h.Mem.MustStore(addr+abi.ConsCdrOff, cdr)
	return isa.MakeCons(addr), nil
}

// Car and Cdr read a cons cell; they report an error on non-cons words.
func (h *Heap) Car(w isa.Word) (isa.Word, error) {
	if !isa.IsCons(w) {
		return 0, fmt.Errorf("heap: car of non-pair %#x", w)
	}
	return h.Mem.LoadWord(isa.PointerAddress(w) + abi.ConsCarOff)
}

func (h *Heap) Cdr(w isa.Word) (isa.Word, error) {
	if !isa.IsCons(w) {
		return 0, fmt.Errorf("heap: cdr of non-pair %#x", w)
	}
	return h.Mem.LoadWord(isa.PointerAddress(w) + abi.ConsCdrOff)
}

// List builds a proper list from items.
func (h *Heap) List(items ...isa.Word) (isa.Word, error) {
	out := isa.Nil
	for i := len(items) - 1; i >= 0; i-- {
		var err error
		out, err = h.Cons(items[i], out)
		if err != nil {
			return 0, err
		}
	}
	return out, nil
}

// kindOf reads the header kind of an "other"-tagged heap object.
func (h *Heap) kindOf(w isa.Word) (kind, length int, addr uint32, err error) {
	if !isa.IsOther(w) || !isa.IsPointer(w) {
		return 0, 0, 0, fmt.Errorf("heap: %#x is not a heap object", w)
	}
	addr = isa.PointerAddress(w)
	hdr, err := h.Mem.LoadWord(addr)
	if err != nil {
		return 0, 0, 0, err
	}
	return int(hdr & abi.HeaderKindMask), int(uint32(hdr) >> abi.HeaderShift), addr, nil
}

// NewVector allocates a vector of n elements initialized to fill.
func (h *Heap) NewVector(n int, fill isa.Word) (isa.Word, error) {
	if n < 0 {
		return 0, fmt.Errorf("heap: negative vector length %d", n)
	}
	addr, err := h.alloc(uint32(4 + 4*n))
	if err != nil {
		return 0, err
	}
	h.Mem.MustStore(addr, header(abi.KindVector, n))
	for i := 0; i < n; i++ {
		h.Mem.MustStore(addr+abi.VecElemOff+uint32(4*i), fill)
	}
	return isa.MakeOther(addr), nil
}

// VectorLen returns the length of a vector.
func (h *Heap) VectorLen(v isa.Word) (int, error) {
	kind, n, _, err := h.kindOf(v)
	if err != nil {
		return 0, err
	}
	if kind != abi.KindVector {
		return 0, fmt.Errorf("heap: %#x is not a vector (kind %d)", v, kind)
	}
	return n, nil
}

func (h *Heap) vectorSlot(v isa.Word, i int) (uint32, error) {
	n, err := h.VectorLen(v)
	if err != nil {
		return 0, err
	}
	if i < 0 || i >= n {
		return 0, fmt.Errorf("heap: vector index %d out of range [0,%d)", i, n)
	}
	return isa.PointerAddress(v) + abi.VecElemOff + uint32(4*i), nil
}

// VectorRef reads element i.
func (h *Heap) VectorRef(v isa.Word, i int) (isa.Word, error) {
	slot, err := h.vectorSlot(v, i)
	if err != nil {
		return 0, err
	}
	return h.Mem.LoadWord(slot)
}

// VectorSet writes element i.
func (h *Heap) VectorSet(v isa.Word, i int, w isa.Word) error {
	slot, err := h.vectorSlot(v, i)
	if err != nil {
		return err
	}
	return h.Mem.StoreWord(slot, w)
}

// NewClosure allocates a closure with the given code entry point and
// captured values.
func (h *Heap) NewClosure(entry uint32, captured []isa.Word) (isa.Word, error) {
	addr, err := h.alloc(uint32(8 + 4*len(captured)))
	if err != nil {
		return 0, err
	}
	h.Mem.MustStore(addr+abi.ClosHeaderOff, header(abi.KindClosure, len(captured)))
	h.Mem.MustStore(addr+abi.ClosEntryOff, isa.MakeFixnum(int32(entry)))
	for i, w := range captured {
		h.Mem.MustStore(addr+abi.ClosCapOff+uint32(4*i), w)
	}
	return isa.MakeOther(addr), nil
}

// ClosureEntry returns a closure's code entry point.
func (h *Heap) ClosureEntry(c isa.Word) (uint32, error) {
	kind, _, addr, err := h.kindOf(c)
	if err != nil {
		return 0, err
	}
	if kind != abi.KindClosure {
		return 0, fmt.Errorf("heap: %#x is not a closure (kind %d)", c, kind)
	}
	w, err := h.Mem.LoadWord(addr + abi.ClosEntryOff)
	if err != nil {
		return 0, err
	}
	return uint32(isa.FixnumValue(w)), nil
}

// ClosureCaptured returns captured value i of a closure.
func (h *Heap) ClosureCaptured(c isa.Word, i int) (isa.Word, error) {
	kind, n, addr, err := h.kindOf(c)
	if err != nil {
		return 0, err
	}
	if kind != abi.KindClosure || i < 0 || i >= n {
		return 0, fmt.Errorf("heap: bad captured slot %d of %#x", i, c)
	}
	return h.Mem.LoadWord(addr + abi.ClosCapOff + uint32(4*i))
}

// NewCell allocates a mutable box holding v.
func (h *Heap) NewCell(v isa.Word) (isa.Word, error) {
	addr, err := h.alloc(8)
	if err != nil {
		return 0, err
	}
	h.Mem.MustStore(addr, header(abi.KindCell, 1))
	h.Mem.MustStore(addr+abi.CellValueOff, v)
	return isa.MakeOther(addr), nil
}

// CellGet and CellSet access a cell's value.
func (h *Heap) CellGet(c isa.Word) (isa.Word, error) {
	kind, _, addr, err := h.kindOf(c)
	if err != nil {
		return 0, err
	}
	if kind != abi.KindCell {
		return 0, fmt.Errorf("heap: %#x is not a cell", c)
	}
	return h.Mem.LoadWord(addr + abi.CellValueOff)
}

func (h *Heap) CellSet(c isa.Word, v isa.Word) error {
	kind, _, addr, err := h.kindOf(c)
	if err != nil {
		return err
	}
	if kind != abi.KindCell {
		return fmt.Errorf("heap: %#x is not a cell", c)
	}
	return h.Mem.StoreWord(addr+abi.CellValueOff, v)
}

// newBytesObject allocates a string or symbol.
func (h *Heap) newBytesObject(kind int, s string) (isa.Word, error) {
	nw := (len(s) + 3) / 4
	addr, err := h.alloc(uint32(4 + 4*nw))
	if err != nil {
		return 0, err
	}
	h.Mem.MustStore(addr, header(kind, len(s)))
	for w := 0; w < nw; w++ {
		var v uint32
		for b := 0; b < 4; b++ {
			if w*4+b < len(s) {
				v |= uint32(s[w*4+b]) << (8 * b)
			}
		}
		h.Mem.MustStore(addr+abi.StrBytesOff+uint32(4*w), isa.Word(v))
	}
	return isa.MakeOther(addr), nil
}

// NewString allocates a string object.
func (h *Heap) NewString(s string) (isa.Word, error) { return h.newBytesObject(abi.KindString, s) }

// NewSymbol allocates a symbol object (interning is the compiler's
// job; symbols with the same name should be allocated once).
func (h *Heap) NewSymbol(s string) (isa.Word, error) { return h.newBytesObject(abi.KindSymbol, s) }

// BytesOf reads back the contents of a string or symbol.
func (h *Heap) BytesOf(w isa.Word) (string, error) {
	kind, n, addr, err := h.kindOf(w)
	if err != nil {
		return "", err
	}
	if kind != abi.KindString && kind != abi.KindSymbol {
		return "", fmt.Errorf("heap: %#x is not a string/symbol", w)
	}
	buf := make([]byte, n)
	for i := 0; i < n; i++ {
		v, err := h.Mem.LoadWord(addr + abi.StrBytesOff + uint32(4*(i/4)))
		if err != nil {
			return "", err
		}
		buf[i] = byte(uint32(v) >> (8 * (i % 4)))
	}
	return string(buf), nil
}

// NewFuture allocates an unresolved future object: its value slot is
// marked empty, which is exactly the "unresolved" state of Section 6.2.
func (h *Heap) NewFuture() (isa.Word, error) {
	addr, err := h.alloc(abi.FutBytes)
	if err != nil {
		return 0, err
	}
	h.Mem.MustStore(addr+abi.FutValueOff, isa.Unspec)
	h.Mem.MustSetFE(addr+abi.FutValueOff, false)
	h.Mem.MustStore(addr+abi.FutAuxOff, isa.Nil)
	return isa.MakeFuture(addr), nil
}

// Resolved reports whether a future's value slot is full.
func (h *Heap) Resolved(f isa.Word) (bool, error) {
	if !isa.IsFuture(f) {
		return false, fmt.Errorf("heap: %#x is not a future", f)
	}
	return h.Mem.FE(isa.PointerAddress(f) + abi.FutValueOff)
}

// Resolve stores v into the future's value slot and marks it full.
func (h *Heap) Resolve(f isa.Word, v isa.Word) error {
	if !isa.IsFuture(f) {
		return fmt.Errorf("heap: resolve of non-future %#x", f)
	}
	addr := isa.PointerAddress(f) + abi.FutValueOff
	if err := h.Mem.StoreWord(addr, v); err != nil {
		return err
	}
	return h.Mem.SetFE(addr, true)
}

// FutureValue reads a resolved future's value.
func (h *Heap) FutureValue(f isa.Word) (isa.Word, error) {
	ok, err := h.Resolved(f)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("heap: future %#x is unresolved", f)
	}
	return h.Mem.LoadWord(isa.PointerAddress(f) + abi.FutValueOff)
}

// Format renders a value for printing, following futures to their
// values when resolved (as touching would). Cycles are cut off by
// depth.
func (h *Heap) Format(w isa.Word) string {
	return h.format(w, 0)
}

func (h *Heap) format(w isa.Word, depth int) string {
	if depth > 16 {
		return "..."
	}
	switch {
	case isa.IsFixnum(w):
		return fmt.Sprintf("%d", isa.FixnumValue(w))
	case w == isa.Nil:
		return "()"
	case w == isa.True:
		return "#t"
	case w == isa.False:
		return "#f"
	case w == isa.Unspec:
		return "#!unspecific"
	case isa.IsFuture(w):
		if ok, err := h.Resolved(w); err == nil && ok {
			v, _ := h.FutureValue(w)
			return h.format(v, depth+1)
		}
		return "#[future]"
	case isa.IsCons(w):
		var b strings.Builder
		b.WriteByte('(')
		first := true
		for isa.IsCons(w) {
			if !first {
				b.WriteByte(' ')
			}
			first = false
			car, err := h.Car(w)
			if err != nil {
				return "#[bad-pair]"
			}
			b.WriteString(h.format(car, depth+1))
			w, err = h.Cdr(w)
			if err != nil {
				return "#[bad-pair]"
			}
		}
		if w != isa.Nil {
			b.WriteString(" . ")
			b.WriteString(h.format(w, depth+1))
		}
		b.WriteByte(')')
		return b.String()
	case isa.IsOther(w) && isa.IsPointer(w):
		kind, n, _, err := h.kindOf(w)
		if err != nil {
			return "#[bad-object]"
		}
		switch kind {
		case abi.KindVector:
			var b strings.Builder
			b.WriteString("#(")
			for i := 0; i < n; i++ {
				if i > 0 {
					b.WriteByte(' ')
				}
				e, err := h.VectorRef(w, i)
				if err != nil {
					return "#[bad-vector]"
				}
				b.WriteString(h.format(e, depth+1))
			}
			b.WriteByte(')')
			return b.String()
		case abi.KindClosure:
			return "#[procedure]"
		case abi.KindString:
			s, _ := h.BytesOf(w)
			return fmt.Sprintf("%q", s)
		case abi.KindSymbol:
			s, _ := h.BytesOf(w)
			return s
		case abi.KindCell:
			v, _ := h.CellGet(w)
			return fmt.Sprintf("#[cell %s]", h.format(v, depth+1))
		}
	}
	return fmt.Sprintf("#[%s %#x]", isa.TagName(w), uint32(w))
}
