package snapshot

// The record codec: Put and Get move a value as its fields in
// declaration order, so a record's type is its encoder, its decoder
// and its field list at once. Layout: int 8 bytes; ~uint8 and bool 1
// (a bool decodes only from 0 or 1); ~uint32 4; uint64 8; a string or
// slice is a count, then its elements; an array is its elements
// (~uint32 runs move as one PutWords copy); a struct is its fields;
// map[~uint32]V is a count, then key and value by ascending key; a
// pointer is a presence byte, then its pointee. Any other kind panics
// when the type's plan is built; a type may not contain itself.
//
// A plan is built once per type: a flat list of operations at field
// offsets from the value's address, so a walk reads and writes memory
// in place instead of going through reflect.Values (map entries alone
// do). Get decodes in place, reusing a slice whose capacity holds the
// decoded count and a non-nil pointer; counts are bounded by the
// payload left to hold their elements.

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"unsafe"
)

// Put appends *v to the image.
func Put[T any](w *Writer, v *T) { planOf(reflect.TypeFor[T]()).put(w, unsafe.Pointer(v)) }

// Get decodes *v from the image. On a failure the Reader's error is
// set and *v holds what was decoded before it.
func Get[T any](r *Reader, v *T) { planOf(reflect.TypeFor[T]()).get(r, unsafe.Pointer(v)) }

// Compile builds and caches t's plan, panicking if t holds a kind the
// image has no layout for. Put and Get compile on first use; tests
// compile every record type up front.
func Compile(t reflect.Type) { planOf(t) }

// op moves one value at off from a record's address. kind is the
// value's reflect kind; an Array op is a run of n ~uint32 words (other
// arrays are unrolled into their elements' ops).
type op struct {
	kind reflect.Kind
	off  uintptr
	n    int
	typ  reflect.Type
	elem *plan       // Slice, Map, Pointer: the element's plan
	maps *mapScratch // Map
	what string      // the field's path in its record ("" at a slice or map's root), for errors and Diff
}

// plan is a type's operations in image order.
type plan struct {
	ops   []op
	size  uintptr // the stride of a slice of the type
	words bool    // ~uint32: a slice of it is one word run
	min   int     // fewest bytes an encoding takes
}

// mapScratch is a map op's entry buffers, one walk at a time.
type mapScratch struct {
	sync.Mutex
	it       reflect.MapIter
	key, val reflect.Value // addressable
	keys     []uint64      // key<<32 | iteration index
	offs     []int         // encoded entry starts, in iteration order
	buf      []byte
}

var plans sync.Map // reflect.Type -> *plan

func planOf(t reflect.Type) *plan {
	if p, ok := plans.Load(t); ok {
		return p.(*plan)
	}
	p := &plan{size: t.Size(), words: t.Kind() == reflect.Uint32}
	p.ops = appendOps(nil, t, 0, "")
	for _, o := range p.ops {
		p.min += o.min()
	}
	got, _ := plans.LoadOrStore(t, p)
	return got.(*plan)
}

// appendOps appends the operations that move a t at off, the value
// what names: a struct's fields are named what.Field, an array's
// elements what[i].
func appendOps(ops []op, t reflect.Type, off uintptr, what string) []op {
	o := op{kind: t.Kind(), off: off, typ: t, what: what}
	switch o.kind {
	case reflect.Bool, reflect.Uint8, reflect.Uint32, reflect.Uint64, reflect.Int, reflect.String:
	case reflect.Array:
		if e := t.Elem(); e.Kind() != reflect.Uint32 {
			for i := 0; i < t.Len(); i++ {
				ops = appendOps(ops, e, off+uintptr(i)*e.Size(), fmt.Sprintf("%s[%d]", what, i))
			}
			return ops
		}
		o.n = t.Len()
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			name := f.Name
			if what != "" {
				name = what + "." + name
			}
			ops = appendOps(ops, f.Type, off+f.Offset, name)
		}
		return ops
	case reflect.Map:
		if t.Key().Kind() != reflect.Uint32 {
			panic(fmt.Sprintf("snapshot: %s: %s has no image layout", cmp.Or(what, "record"), t))
		}
		o.maps = &mapScratch{key: reflect.New(t.Key()).Elem(), val: reflect.New(t.Elem()).Elem()}
		o.elem = planOf(t.Elem())
	case reflect.Slice, reflect.Pointer:
		o.elem = planOf(t.Elem())
	default:
		panic(fmt.Sprintf("snapshot: %s: %s has no image layout", cmp.Or(what, "record"), t))
	}
	return append(ops, o)
}

func (o *op) min() int {
	switch o.kind {
	case reflect.Bool, reflect.Uint8, reflect.Pointer:
		return 1
	case reflect.Uint32, reflect.String, reflect.Slice, reflect.Map:
		return 4
	case reflect.Array:
		return 4 * o.n
	}
	return 8
}

func (p *plan) put(w *Writer, base unsafe.Pointer) {
	if w.loc != nil {
		p.putLocated(w, base)
		return
	}
	p.putOps(w, base)
}

func (p *plan) putOps(w *Writer, base unsafe.Pointer) {
	for i := range p.ops {
		o := &p.ops[i]
		at := unsafe.Add(base, o.off)
		switch o.kind {
		case reflect.Bool:
			w.Bool(*(*bool)(at))
		case reflect.Uint8:
			w.U8(*(*uint8)(at))
		case reflect.Uint32:
			w.U32(*(*uint32)(at))
		case reflect.Uint64:
			w.U64(*(*uint64)(at))
		case reflect.Int:
			w.Int(*(*int)(at))
		case reflect.String:
			w.String(*(*string)(at))
		case reflect.Array:
			PutWords(w, unsafe.Slice((*uint32)(at), o.n))
		case reflect.Slice:
			s := *(*[]byte)(at) // any slice header reads as a []byte's
			w.Count(len(s))
			data := unsafe.Pointer(unsafe.SliceData(s))
			if o.elem.words {
				PutWords(w, unsafe.Slice((*uint32)(data), len(s)))
				break
			}
			for i := range s {
				o.elem.put(w, unsafe.Add(data, uintptr(i)*o.elem.size))
			}
		case reflect.Map:
			o.putMap(w, at)
		case reflect.Pointer:
			p := *(*unsafe.Pointer)(at)
			w.Bool(p != nil)
			if p != nil {
				o.elem.put(w, p)
			}
		}
	}
}

func (p *plan) get(r *Reader, base unsafe.Pointer) {
	for i := 0; i < len(p.ops) && r.err == nil; i++ {
		o := &p.ops[i]
		at := unsafe.Add(base, o.off)
		switch o.kind {
		case reflect.Bool:
			*(*bool)(at) = r.Bool()
		case reflect.Uint8:
			*(*uint8)(at) = r.U8()
		case reflect.Uint32:
			*(*uint32)(at) = r.U32()
		case reflect.Uint64:
			*(*uint64)(at) = r.U64()
		case reflect.Int:
			*(*int)(at) = r.Int()
		case reflect.String:
			*(*string)(at) = r.String()
		case reflect.Array:
			GetWords(r, unsafe.Slice((*uint32)(at), o.n))
		case reflect.Slice:
			o.getSlice(r, at)
		case reflect.Map:
			o.getMap(r, at)
		case reflect.Pointer:
			p := (*unsafe.Pointer)(at)
			if !r.Bool() {
				*p = nil
				break
			}
			if *p == nil {
				*p = reflect.New(o.typ.Elem()).UnsafePointer()
			}
			o.elem.get(r, *p)
		}
	}
}

// count decodes the count of a run of values of at least min bytes.
func (r *Reader) count(what string, min int) int {
	return r.CountAtMost(what, r.Remaining()/max(min, 1))
}

func (o *op) getSlice(r *Reader, at unsafe.Pointer) {
	n := r.count(cmp.Or(o.what, o.typ.String()), o.elem.min)
	s := (*[]byte)(at) // the header, whatever the element type
	if cap(*s) < n {
		v := reflect.NewAt(o.typ, at).Elem()
		v.SetLen(0)
		v.Grow(n) // writes the new header at at: one allocation, the array
	}
	*s = (*s)[:n]
	data := unsafe.Pointer(unsafe.SliceData(*s))
	if o.elem.words {
		GetWords(r, unsafe.Slice((*uint32)(data), n))
		return
	}
	for i := 0; i < n && r.err == nil; i++ {
		o.elem.get(r, unsafe.Add(data, uintptr(i)*o.elem.size))
	}
}

// putMap encodes the entries in iteration order, then permutes their
// bytes into ascending key order.
func (o *op) putMap(w *Writer, at unsafe.Pointer) {
	m := reflect.NewAt(o.typ, at).Elem()
	w.Count(m.Len())
	if m.Len() == 0 {
		return
	}
	s := o.maps
	s.Lock()
	defer s.Unlock()
	val := s.val.Addr().UnsafePointer()
	start := len(w.buf)
	s.keys, s.offs = s.keys[:0], s.offs[:0]
	for s.it.Reset(m); s.it.Next(); {
		s.key.SetIterKey(&s.it)
		s.val.SetIterValue(&s.it)
		k := uint32(s.key.Uint())
		s.keys = append(s.keys, uint64(k)<<32|uint64(len(s.offs)))
		s.offs = append(s.offs, len(w.buf))
		w.U32(k)
		o.elem.put(w, val)
	}
	s.it.Reset(reflect.Value{}) // hold no references between walks
	s.val.SetZero()
	s.offs = append(s.offs, len(w.buf))
	slices.Sort(s.keys)
	s.buf = append(s.buf[:0], w.buf[start:]...)
	pos := start
	for _, k := range s.keys {
		i := uint32(k)
		pos += copy(w.buf[pos:], s.buf[s.offs[i]-start:s.offs[i+1]-start])
	}
}

func (o *op) getMap(r *Reader, at unsafe.Pointer) {
	n := r.count(cmp.Or(o.what, o.typ.String()), 4+o.elem.min)
	m := reflect.NewAt(o.typ, at).Elem()
	m.Set(reflect.MakeMapWithSize(o.typ, n))
	if n == 0 {
		return
	}
	s := o.maps
	s.Lock()
	defer s.Unlock()
	val := s.val.Addr().UnsafePointer()
	for i := 0; i < n && r.err == nil; i++ {
		s.key.SetUint(uint64(r.U32()))
		s.val.SetZero() // decode in place must not reuse the last entry's slices
		o.elem.get(r, val)
		m.SetMapIndex(s.key, s.val)
	}
	s.val.SetZero()
}

// putLocated is put naming every value for the Writer's locator:
// scalars and word runs by their field, a slice's elements and a map's
// entries (walked by ascending key, the order putMap permutes them
// into) each in a section of their own.
func (p *plan) putLocated(w *Writer, base unsafe.Pointer) {
	for i := range p.ops {
		o := &p.ops[i]
		at := unsafe.Add(base, o.off)
		count := strings.TrimSpace(o.what + " len")
		switch o.kind {
		case reflect.Slice:
			s := *(*[]byte)(at)
			data := unsafe.Pointer(unsafe.SliceData(s))
			w.Field(count, 4).Count(len(s))
			if o.elem.words {
				w.Field(o.what, 4)
				PutWords(w, unsafe.Slice((*uint32)(data), len(s)))
				break
			}
			for j := range s {
				w.Enter(o.what, j)
				o.elem.put(w, unsafe.Add(data, uintptr(j)*o.elem.size))
				w.Leave()
			}
		case reflect.Map:
			m := reflect.NewAt(o.typ, at).Elem()
			keys := m.MapKeys()
			slices.SortFunc(keys, func(a, b reflect.Value) int { return cmp.Compare(a.Uint(), b.Uint()) })
			w.Field(count, 4).Count(len(keys))
			for _, k := range keys {
				v := reflect.New(o.typ.Elem()).Elem()
				v.Set(m.MapIndex(k))
				w.Enter(o.what, int(k.Uint()))
				w.Field("key", 4).U32(uint32(k.Uint()))
				o.elem.put(w, v.Addr().UnsafePointer())
				w.Leave()
			}
		case reflect.Pointer:
			ptr := *(*unsafe.Pointer)(at)
			w.Field(o.what, 1).Bool(ptr != nil)
			if ptr != nil {
				w.Enter(o.what, -1)
				o.elem.put(w, ptr)
				w.Leave()
			}
		default:
			w.Field(o.what, o.width())
			one := plan{ops: p.ops[i : i+1]}
			one.putOps(w, base)
		}
	}
}

// width is the byte width of a scalar op's value, or of one element of
// a word run or a string.
func (o *op) width() int {
	switch o.kind {
	case reflect.Uint32, reflect.Array:
		return 4
	case reflect.Uint64, reflect.Int:
		return 8
	}
	return 1
}
