package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// encodeAll writes one of every primitive (TestPrimitivesRoundTrip
// reads them back in the same order).
func encodeAll(w *Writer) {
	w.U8(0xab)
	w.U32(0xdeadbeef)
	w.U64(0x0123456789abcdef)
	w.Int(-42)
	w.Int(-1 << 40)
	w.Bool(true)
	w.Bool(false)
	w.Count(7)
	w.String("APRIL")
	w.String("")
	Put(w, &[]int{3, -1, 1 << 33})
	Put(w, new([]int))
	Put(w, &[]uint32{1, 2, 0xffffffff})
	Put(w, &[]uint64{^uint64(0), 5})
	PutWords(w, []word{9, 8, 7, 6})
	PutWords(w, []word(nil))
}

type word uint32 // stands in for isa.Word: PutWords/GetWords take any ~uint32

func TestPrimitivesRoundTrip(t *testing.T) {
	w := NewWriter(0) // zero capacity: every write grows
	encodeAll(w)
	if w.Len() != len(w.Bytes()) {
		t.Fatalf("Len %d, Bytes %d", w.Len(), len(w.Bytes()))
	}
	_, r, err := Open(w.Seal(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, got, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s = %v, want %v", what, got, want)
		}
	}
	check("U8", r.U8(), uint8(0xab))
	check("U32", r.U32(), uint32(0xdeadbeef))
	check("U64", r.U64(), uint64(0x0123456789abcdef))
	check("Int", r.Int(), -42)
	check("Int", r.Int(), -1<<40)
	check("Bool", r.Bool(), true)
	check("Bool", r.Bool(), false)
	check("U32 under Count", r.U32(), uint32(7))
	check("String", r.String(), "APRIL")
	check("String", r.String(), "")
	check("Ints", get[[]int](r), []int{3, -1, 1 << 33})
	check("Ints", get[[]int](r), []int(nil))
	check("[]uint32", get[[]uint32](r), []uint32{1, 2, 0xffffffff})
	check("[]uint64", get[[]uint64](r), []uint64{^uint64(0), 5})
	ws := make([]word, 4)
	GetWords(r, ws)
	check("GetWords", ws, []word{9, 8, 7, 6})
	GetWords(r, []word(nil))
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if r.Remaining() != 0 {
		t.Errorf("%d bytes left over", r.Remaining())
	}
}

// TestSealInPlace: the Writer's in-place seal and the copying Seal of
// the same payload are the same bytes, and the in-place image is the
// Writer's own buffer.
func TestSealInPlace(t *testing.T) {
	w := NewWriter(1 << 10)
	encodeAll(w)
	payload := bytes.Clone(w.Bytes())
	copied := Seal(payload, 0xfeed, 77)
	inPlace := w.Seal(0xfeed, 77)
	if !bytes.Equal(inPlace, copied) {
		t.Fatal("Writer.Seal and Seal disagree")
	}
	if &inPlace[headerLen] != &w.Bytes()[0] {
		t.Error("Writer.Seal copied the payload")
	}
	hdr, err := PeekHeader(inPlace)
	if err != nil || hdr != (Header{Version: Version, ConfigHash: 0xfeed, Cycle: 77}) {
		t.Errorf("PeekHeader = %+v, %v", hdr, err)
	}
}

func TestOpenTaxonomy(t *testing.T) {
	img := Seal([]byte("some payload bytes"), 1, 2)
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"magic", func(b []byte) []byte { b[3] ^= 1; return b }, ErrMagic},
		{"v1 header", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[8:], 1); return b }, ErrVersion},
		{"v2 header", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[8:], 2); return b }, ErrVersion},
		{"v3 header", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[8:], 3); return b }, ErrVersion},
		{"future version", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[8:], Version+1); return b }, ErrVersion},
		{"empty", func(b []byte) []byte { return nil }, ErrTruncated},
		{"short header", func(b []byte) []byte { return b[:headerLen-1] }, ErrTruncated},
		{"short payload", func(b []byte) []byte { return b[:len(b)-1] }, ErrTruncated},
		{"trailing bytes", func(b []byte) []byte { return append(b, 0) }, ErrTruncated},
		{"flipped payload bit", func(b []byte) []byte { b[headerLen+4] ^= 0x10; return b }, ErrChecksum},
		{"flipped checksum bit", func(b []byte) []byte { b[36] ^= 1; return b }, ErrChecksum},
		{"checksum high half set", func(b []byte) []byte { b[40] = 1; return b }, ErrChecksum},
	}
	for _, tc := range cases {
		_, r, err := Open(tc.mutate(bytes.Clone(img)))
		if !errors.Is(err, tc.want) || r != nil {
			t.Errorf("%s: Open = (%v, %v), want %v", tc.name, r, err, tc.want)
		}
	}
	if _, _, err := Open(img); err != nil {
		t.Errorf("pristine image: %v", err)
	}
	if Version != 4 {
		t.Errorf("format version %d, want 4", Version)
	}
}

// TestChecksumIsCRC32C pins the v3 header's checksum field: the
// payload's CRC-32C (Castagnoli) in the low half, zero in the high half.
func TestChecksumIsCRC32C(t *testing.T) {
	payload := make([]byte, 1<<12+3)
	rand.New(rand.NewSource(1)).Read(payload)
	img := Seal(payload, 5, 6)
	want := crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli))
	if lo, hi := binary.LittleEndian.Uint32(img[36:]), binary.LittleEndian.Uint32(img[40:]); lo != want || hi != 0 {
		t.Errorf("checksum field (low %#x, high %#x), want (%#x, 0)", lo, hi, want)
	}
}

// TestWordsByteLayout pins the bytes of a run of words: little-endian
// whatever the host, and the same from the bulk copy path and the
// per-word loop (the big-endian hosts' path) in both directions.
func TestWordsByteLayout(t *testing.T) {
	w := NewWriter(0)
	PutWords(w, []word{0x04030201, 0xddccbbaa, 0, 0xffffffff})
	want := []byte{1, 2, 3, 4, 0xaa, 0xbb, 0xcc, 0xdd, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}
	if !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("PutWords wrote % x, want % x", w.Bytes(), want)
	}
	_, r, err := Open(w.Seal(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]word, 4)
	GetWords(r, got)
	if !slices.Equal(got, []word{0x04030201, 0xddccbbaa, 0, 0xffffffff}) || r.Err() != nil {
		t.Fatalf("GetWords = %#x, %v", got, r.Err())
	}

	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 3, 1024} { // 1024: one memory page
		page := make([]word, n)
		for i := range page {
			page[i] = word(rng.Uint32())
		}
		loop := make([]byte, 4*n)
		putWordsLoop(loop, page)
		for i, v := range page {
			if binary.LittleEndian.Uint32(loop[4*i:]) != uint32(v) {
				t.Fatalf("%d words: loop path wrote word %d big-endian", n, i)
			}
		}
		back := make([]word, n)
		getWordsLoop(back, loop)
		if !slices.Equal(back, page) {
			t.Fatalf("%d words: loop path does not round-trip", n)
		}
		if !hostLittleEndian {
			continue // the copy path is the host's layout, not the image's
		}
		if !bytes.Equal(wordBytes(page), loop) {
			t.Errorf("%d words: copy path encodes differently from the loop", n)
		}
		viaCopy := make([]word, n)
		copy(wordBytes(viaCopy), loop)
		if !slices.Equal(viaCopy, page) {
			t.Errorf("%d words: copy path decodes differently from the loop", n)
		}
	}
}

// BenchmarkSealOpen prices the checksum: seal a 4 MiB payload (about a
// 64-node image) and open it again, so every byte is checksummed twice.
func BenchmarkSealOpen(b *testing.B) {
	payload := make([]byte, 4<<20)
	rand.New(rand.NewSource(1)).Read(payload)
	w := NewWriter(len(payload))
	w.extend(len(payload))
	copy(w.Bytes(), payload)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Open(w.Seal(1, 2)); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCountsAreBounded(t *testing.T) {
	open := func(build func(*Writer)) *Reader {
		w := NewWriter(64)
		build(w)
		_, r, err := Open(w.Seal(0, 0))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	// A count can never exceed the payload bytes that follow it.
	r := open(func(w *Writer) { w.Count(5); w.U32(0) })
	if n := r.Count("things"); n != 0 || !errors.Is(r.Err(), ErrCorrupt) {
		t.Errorf("Count = %d, %v; want 0, ErrCorrupt", n, r.Err())
	}
	r = open(func(w *Writer) { w.Count(4); w.U32(0) })
	if n := r.Count("things"); n != 4 || r.Err() != nil {
		t.Errorf("Count = %d, %v; want 4, nil", n, r.Err())
	}
	r = open(func(w *Writer) { w.Count(4); w.U32(0) })
	if n := r.CountAtMost("things", 3); n != 0 || !errors.Is(r.Err(), ErrCorrupt) {
		t.Errorf("CountAtMost = %d, %v; want 0, ErrCorrupt", n, r.Err())
	}
	// A hostile length prefix fails before the slice is allocated.
	r = open(func(w *Writer) { w.Count(1 << 30) })
	if vs := get[[]uint64](r); vs != nil || !errors.Is(r.Err(), ErrCorrupt) {
		t.Errorf("[]uint64 = %v, %v; want nil, ErrCorrupt", vs, r.Err())
	}
	r = open(func(w *Writer) { w.U8(2) })
	if r.Bool() || !errors.Is(r.Err(), ErrCorrupt) {
		t.Errorf("Bool(2): %v, want ErrCorrupt", r.Err())
	}
}

func TestStickyError(t *testing.T) {
	w := NewWriter(16)
	w.U32(1)
	w.U32(2)
	_, r, err := Open(w.Seal(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	ws := []word{5, 5, 5}
	GetWords(r, ws) // 12 bytes wanted, 8 there
	first := r.Err()
	if !errors.Is(first, ErrTruncated) {
		t.Fatalf("short bulk read: %v, want ErrTruncated", first)
	}
	if !slices.Equal(ws, []word{5, 5, 5}) {
		t.Errorf("failed GetWords wrote %v", ws)
	}
	if r.U8() != 0 || r.U32() != 0 || r.U64() != 0 || r.Int() != 0 || r.Bool() || r.String() != "" ||
		get[[]int](r) != nil || get[[]uint32](r) != nil || get[*record](r) != nil || r.Count("x") != 0 {
		t.Error("read after an error returned a non-zero value")
	}
	r.Corrupt("later complaint")
	if r.Err() != first {
		t.Errorf("error replaced: %v", r.Err())
	}
}

// FuzzOpen: arbitrary bytes open to an error or a Reader, never a
// panic; and the same bytes sealed as a payload (so they pass the
// checksum) decode to values or a sticky error, never a panic.
func FuzzOpen(f *testing.F) {
	w := NewWriter(64)
	encodeAll(w)
	img := w.Seal(3, 4)
	f.Add(bytes.Clone(img))
	f.Add(bytes.Clone(w.Bytes()))
	f.Add(img[:headerLen])
	f.Add([]byte("APRILIMG"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, r, err := Open(data)
		if (err == nil) == (r == nil) {
			t.Fatalf("Open = (%v, %v): want exactly one of Reader and error", r, err)
		}
		if err == nil && hdr.Version != Version {
			t.Fatalf("opened a v%d image", hdr.Version)
		}
		_, r, err = Open(Seal(data, 0, 0))
		if err != nil {
			t.Fatalf("sealed payload does not open: %v", err)
		}
		// Every decoder over the payload, its own bytes picking the order.
		for r.Err() == nil && r.Remaining() > 0 {
			switch r.U8() % 8 {
			case 0:
				r.U64()
			case 1:
				r.Bool()
			case 2:
				_ = r.String()
			case 3:
				get[[]int](r)
			case 4:
				get[[]uint32](r)
			case 5:
				get[record](r)
			case 6:
				GetWords(r, make([]word, r.CountAtMost("words", 1<<10)))
			case 7:
				r.Int()
			}
		}
	})
}
