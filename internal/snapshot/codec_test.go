package snapshot

import (
	"bytes"
	"errors"
	"reflect"
	"sync"
	"testing"
)

// get decodes one T.
func get[T any](r *Reader) T {
	var v T
	Get(r, &v)
	return v
}

type kind uint8

type sub struct {
	A word
	L []int
}

// record holds one field of every layout rule.
type record struct {
	I      int
	B      bool
	K      kind
	W      word
	U      uint64
	S      string
	Regs   [3]word
	Pair   [2]uint64
	Ints   []int
	Words  []word
	Subs   []sub
	M      map[uint32]sub
	P      *sub
	Q      *[]sub
	hidden int // unexported fields are walked too
}

func sampleRecord() record {
	return record{
		I: -7, B: true, K: 3, W: 0xfeedface, U: 1 << 40, S: "frame",
		Regs: [3]word{1, 2, 3}, Pair: [2]uint64{4, 5},
		Ints: []int{-1, 1 << 33}, Words: []word{6, 7},
		Subs: []sub{{A: 8}, {A: 9, L: []int{10}}},
		M:    map[uint32]sub{30: {A: 3}, 10: {A: 1, L: []int{11, 12}}, 20: {A: 2}},
		P:    &sub{A: 13},
		// Q nil: a lone absent byte.
		hidden: 14,
	}
}

// TestCodecLayout: Put writes a record as its fields in declaration
// order with the Writer's primitives, and Get reads it back.
func TestCodecLayout(t *testing.T) {
	v := sampleRecord()
	w := NewWriter(0)
	Put(w, &v)

	want := NewWriter(0)
	putInts := func(vs []int) {
		want.Count(len(vs))
		for _, v := range vs {
			want.Int(v)
		}
	}
	putSub := func(s sub) {
		want.U32(uint32(s.A))
		putInts(s.L)
	}
	want.Int(v.I)
	want.Bool(v.B)
	want.U8(uint8(v.K))
	want.U32(uint32(v.W))
	want.U64(v.U)
	want.String(v.S)
	PutWords(want, v.Regs[:])
	want.U64(v.Pair[0])
	want.U64(v.Pair[1])
	putInts(v.Ints)
	want.Count(len(v.Words))
	PutWords(want, v.Words)
	want.Count(len(v.Subs))
	for _, s := range v.Subs {
		putSub(s)
	}
	want.Count(len(v.M))
	for _, k := range []uint32{10, 20, 30} { // ascending key
		want.U32(k)
		putSub(v.M[k])
	}
	want.Bool(true)
	putSub(*v.P)
	want.Bool(false)
	want.Int(v.hidden)
	if !bytes.Equal(w.Bytes(), want.Bytes()) {
		t.Fatalf("Put wrote\n%x\nwant\n%x", w.Bytes(), want.Bytes())
	}

	_, r, err := Open(w.Seal(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	got := get[record](r)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	v.Subs[0].L = nil // an empty slice decodes as nil
	if !reflect.DeepEqual(got, v) {
		t.Errorf("Get = %+v\nwant %+v", got, v)
	}
}

// TestCodecDecodesInPlace: decoding into a value that already holds
// the slices and pointees it needs allocates nothing.
func TestCodecDecodesInPlace(t *testing.T) {
	type frameSet struct {
		FP     int
		Frames []sub
		Words  []word
		Stuck  *[]uint64
	}
	v := frameSet{FP: 1, Frames: []sub{{A: 1}, {A: 2}}, Words: []word{3, 4, 5}, Stuck: &[]uint64{6, 7}}
	w := NewWriter(0)
	Put(w, &v)
	var into frameSet
	allocs := testing.AllocsPerRun(10, func() {
		r := &Reader{buf: w.Bytes()}
		Get(r, &into)
		if r.Err() != nil || r.Remaining() != 0 {
			t.Fatalf("Get: %v with %d bytes left", r.Err(), r.Remaining())
		}
	})
	if !reflect.DeepEqual(into, v) {
		t.Errorf("Get = %+v, want %+v", into, v)
	}
	if allocs > 1 { // the Reader
		t.Errorf("decoding in place made %.0f allocations", allocs)
	}
}

// TestCodecRefusesHostileCounts: a count is bounded by the fewest
// bytes its elements can take, before anything is allocated for it.
func TestCodecRefusesHostileCounts(t *testing.T) {
	w := NewWriter(0)
	w.Count(3) // three subs take at least 24 bytes: 16 follow
	w.U64(0)
	w.U64(0)
	r := &Reader{buf: w.Bytes()}
	if s := get[[]sub](r); s != nil || !errors.Is(r.Err(), ErrCorrupt) {
		t.Errorf("slice: %v, %v; want nil, ErrCorrupt", s, r.Err())
	}
	w = NewWriter(0)
	w.Count(2) // two entries take at least 16 bytes: 8 follow
	w.U64(0)
	r = &Reader{buf: w.Bytes()}
	if m := get[map[uint32]sub](r); len(m) != 0 || !errors.Is(r.Err(), ErrCorrupt) {
		t.Errorf("map: %v, %v; want empty, ErrCorrupt", m, r.Err())
	}
	r = &Reader{buf: []byte{2}}
	if p := get[*sub](r); p != nil || !errors.Is(r.Err(), ErrCorrupt) {
		t.Errorf("presence byte 2: %v, %v; want nil, ErrCorrupt", p, r.Err())
	}
}

// TestCodecRefusesKinds: a type the image has no layout for panics
// when its plan is built, naming the field.
func TestCodecRefusesKinds(t *testing.T) {
	type withFloat struct {
		OK   int
		Rate float64
	}
	for _, typ := range []reflect.Type{
		reflect.TypeFor[withFloat](),
		reflect.TypeFor[int32](),
		reflect.TypeFor[map[string]int](),
		reflect.TypeFor[[]chan int](),
		reflect.TypeFor[func()](),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Compile(%s) did not panic", typ)
				}
			}()
			Compile(typ)
		}()
	}
}

// TestCodecConcurrent: writers and readers on several goroutines share
// the cached plans and each map op's entry buffers (run under -race).
func TestCodecConcurrent(t *testing.T) {
	v := sampleRecord()
	w := NewWriter(0)
	Put(w, &v)
	want := w.Bytes()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				w := NewWriter(0)
				Put(w, &v)
				r := &Reader{buf: w.Bytes()}
				got := get[record](r)
				if !bytes.Equal(w.Bytes(), want) || r.Err() != nil || len(got.M) != len(v.M) {
					t.Errorf("goroutine %d: bytes differ or decode failed (%v)", g, r.Err())
					return
				}
			}
		}()
	}
	wg.Wait()
}
