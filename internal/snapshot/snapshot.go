// Package snapshot is the machine-image container format: a
// self-describing header plus a checksummed binary payload, with
// sticky-error primitive codecs and a declaration-order record codec
// (codec.go) for the encoders in internal/sim.
//
// The format is deliberately dumb — fixed-width little-endian scalars,
// length-prefixed slices, no compression, no framing beyond the one
// header — because the consumers are a deterministic simulator's
// checkpoint loop and its divergence bisector: what matters is that
// encode(decode(x)) is the identity, that a truncated or corrupted
// file fails with a structured error instead of a panic or a silently
// wrong machine, and that two images of the same run can be recognized
// as such (the config hash) without decoding their payloads.
//
// Layout:
//
//	offset size
//	0      8    magic "APRILIMG"
//	8      4    format version (little-endian uint32)
//	12     8    config hash (FNV-64a over the machine-defining prefix
//	            of the payload; images of the same run share it)
//	20     8    simulated cycle at which the image was taken
//	28     8    payload length in bytes
//	36     8    CRC-32C (Castagnoli) of the payload, zero-extended
//	44     -    payload
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"slices"
	"unsafe"
)

// Version is the current image format version. Bump on any payload
// layout change, a field added to, removed from, retyped or moved in a
// record Put walks included; Open rejects other versions with
// ErrVersion. (v2: one memory section of 4 KiB pages, valid cache
// lines only. v3: CRC-32C payload checksum.)
const Version = 3

var magic = [8]byte{'A', 'P', 'R', 'I', 'L', 'I', 'M', 'G'}

// headerLen is the fixed byte length of the image header.
const headerLen = 8 + 4 + 8 + 8 + 8 + 8

// Structured open/decode failures. All errors returned by Open and by
// Reader methods wrap one of these, so callers can classify with
// errors.Is.
var (
	ErrMagic     = errors.New("snapshot: not an APRIL machine image")
	ErrVersion   = errors.New("snapshot: unsupported image format version")
	ErrTruncated = errors.New("snapshot: image truncated")
	ErrChecksum  = errors.New("snapshot: image checksum mismatch")
	ErrCorrupt   = errors.New("snapshot: image payload corrupt")
)

// Header is the decoded image header.
type Header struct {
	Version    uint32
	ConfigHash uint64 // identity of the run this image belongs to
	Cycle      uint64 // simulated cycle of the snapshot
}

// Hash is the run-identity hash, FNV-64a: callers hash the few-KB
// identity section with it to get the header's config hash. Payloads
// are checksummed with CRC-32C instead.
func Hash(data []byte) uint64 {
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64()
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum is the payload checksum the header carries: CRC-32C, which
// the standard library computes with the host's CRC instructions on
// amd64 and arm64, zero-extended into the 8-byte field.
func checksum(payload []byte) uint64 {
	return uint64(crc32.Checksum(payload, castagnoli))
}

// putHeader fills img[:headerLen] for the payload that follows it.
func putHeader(img []byte, configHash, cycle uint64) {
	payload := img[headerLen:]
	copy(img, magic[:])
	binary.LittleEndian.PutUint32(img[8:], Version)
	binary.LittleEndian.PutUint64(img[12:], configHash)
	binary.LittleEndian.PutUint64(img[20:], cycle)
	binary.LittleEndian.PutUint64(img[28:], uint64(len(payload)))
	binary.LittleEndian.PutUint64(img[36:], checksum(payload))
}

// Seal wraps a copy of an encoded payload in a header. configHash
// identifies the run (images from the same run must carry the same
// hash) and cycle is the simulated cycle of the snapshot. Encoders
// holding a Writer seal in place with Writer.Seal instead.
func Seal(payload []byte, configHash, cycle uint64) []byte {
	out := make([]byte, headerLen+len(payload))
	copy(out[headerLen:], payload)
	putHeader(out, configHash, cycle)
	return out
}

// PeekHeader validates and returns just the header, skipping the
// payload length and checksum — for listing checkpoint directories
// cheaply.
func PeekHeader(img []byte) (Header, error) {
	var h Header
	if len(img) < headerLen {
		return h, fmt.Errorf("%w: %d bytes, header is %d", ErrTruncated, len(img), headerLen)
	}
	if [8]byte(img[:8]) != magic {
		return h, ErrMagic
	}
	h.Version = binary.LittleEndian.Uint32(img[8:])
	if h.Version != Version {
		return h, fmt.Errorf("%w: image is v%d, this build reads v%d", ErrVersion, h.Version, Version)
	}
	h.ConfigHash = binary.LittleEndian.Uint64(img[12:])
	h.Cycle = binary.LittleEndian.Uint64(img[20:])
	return h, nil
}

// Open validates an image's header and checksum and returns the header
// plus a Reader positioned at the start of the payload.
func Open(img []byte) (Header, *Reader, error) {
	h, err := PeekHeader(img)
	if err != nil {
		return h, nil, err
	}
	plen := binary.LittleEndian.Uint64(img[28:])
	sum := binary.LittleEndian.Uint64(img[36:])
	payload := img[headerLen:]
	if uint64(len(payload)) != plen {
		return h, nil, fmt.Errorf("%w: header says %d payload bytes, file has %d", ErrTruncated, plen, len(payload))
	}
	if checksum(payload) != sum {
		return h, nil, fmt.Errorf("%w (cycle %d)", ErrChecksum, h.Cycle)
	}
	return h, &Reader{buf: payload}, nil
}

// Writer encodes primitives into a growing buffer whose first
// headerLen bytes are reserved, so Seal finishes the image where it
// was encoded. Writes cannot fail, so there is no error state; the
// encoders stay straight-line code.
type Writer struct {
	buf []byte // header space, then the payload
}

// NewWriter returns a Writer with room for a payload of the given size
// before it has to grow.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, headerLen, headerLen+capacity)}
}

// Bytes returns the encoded payload.
func (w *Writer) Bytes() []byte { return w.buf[headerLen:] }

// Len returns the number of payload bytes encoded so far.
func (w *Writer) Len() int { return len(w.buf) - headerLen }

// Seal writes the header in front of the payload and returns the
// finished image, which aliases the Writer's buffer: the Writer must
// not be written to afterwards.
func (w *Writer) Seal(configHash, cycle uint64) []byte {
	putHeader(w.buf, configHash, cycle)
	return w.buf
}

// extend appends n bytes and returns them for the caller to fill.
func (w *Writer) extend(n int) []byte {
	w.buf = slices.Grow(w.buf, n)
	w.buf = w.buf[:len(w.buf)+n]
	return w.buf[len(w.buf)-n:]
}

func (w *Writer) U8(v uint8)   { w.buf = append(w.buf, v) }
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *Writer) Int(v int)    { w.U64(uint64(v)) } // two's complement

func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Count prefixes a sequence with its length.
func (w *Writer) Count(n int) { w.U32(uint32(n)) }

// String encodes a length-prefixed string.
func (w *Writer) String(s string) {
	w.Count(len(s))
	w.buf = append(w.buf, s...)
}

// hostLittleEndian reports whether the host lays words out as the image
// does, so a run of them moves with one copy.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// wordBytes is the host's in-memory bytes of vs.
func wordBytes[T ~uint32](vs []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vs))), 4*len(vs))
}

// PutWords encodes a run of 32-bit words with no length prefix (the
// decoder knows the length: a memory page, a register file), growing
// the buffer once for the run. GetWords is its counterpart.
func PutWords[T ~uint32](w *Writer, vs []T) {
	b := w.extend(4 * len(vs))
	if hostLittleEndian {
		copy(b, wordBytes(vs))
	} else {
		putWordsLoop(b, vs)
	}
}

// putWordsLoop is PutWords one word at a time, for big-endian hosts.
func putWordsLoop[T ~uint32](b []byte, vs []T) {
	for i, v := range vs {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
	}
}

// Reader decodes primitives with a sticky error: after the first
// failure every subsequent read returns zero values, so decoders can
// run straight-line and check Err once per section. All failures wrap
// ErrTruncated or ErrCorrupt — never a panic, whatever the bytes.
type Reader struct {
	buf []byte
	off int
	err error
}

// Err returns the first decode failure, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the undecoded byte count.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: reading %s at offset %d of %d", ErrTruncated, what, r.off, len(r.buf))
	}
}

func (r *Reader) take(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.buf)-r.off < n {
		r.fail(what)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *Reader) U8() uint8 {
	b := r.take(1, "u8")
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *Reader) U32() uint32 {
	b := r.take(4, "u32")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *Reader) U64() uint64 {
	b := r.take(8, "u64")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *Reader) Int() int { return int(int64(r.U64())) }

func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.Corrupt("bool out of range")
		return false
	}
}

// Count decodes a sequence length and bounds-checks it: a count can
// never exceed the remaining payload (every element is at least one
// byte), so a corrupted length fails here instead of in a giant
// allocation.
func (r *Reader) Count(what string) int {
	n := int(r.U32())
	if r.err != nil {
		return 0
	}
	if n < 0 || n > r.Remaining() {
		r.err = fmt.Errorf("%w: %s count %d exceeds %d remaining payload bytes", ErrCorrupt, what, n, r.Remaining())
		return 0
	}
	return n
}

// CountAtMost is Count with an additional domain bound (e.g. a
// per-node list cannot exceed the node count).
func (r *Reader) CountAtMost(what string, max int) int {
	n := r.Count(what)
	if r.err == nil && n > max {
		r.err = fmt.Errorf("%w: %s count %d exceeds bound %d", ErrCorrupt, what, n, max)
		return 0
	}
	return n
}

// String decodes a length-prefixed string.
func (r *Reader) String() string {
	n := r.Count("string")
	b := r.take(n, "string body")
	return string(b)
}

// GetWords fills dst with the next len(dst) 32-bit words: one bounds
// check for the run. On failure dst is left untouched.
func GetWords[T ~uint32](r *Reader, dst []T) {
	b := r.take(4*len(dst), "words")
	if b == nil {
		return
	}
	if hostLittleEndian {
		copy(wordBytes(dst), b)
	} else {
		getWordsLoop(dst, b)
	}
}

// getWordsLoop is GetWords one word at a time, for big-endian hosts.
func getWordsLoop[T ~uint32](dst []T, b []byte) {
	for i := range dst {
		dst[i] = T(binary.LittleEndian.Uint32(b[4*i:]))
	}
}

// Corrupt records a semantic validation failure at the current offset
// (value decoded fine but is out of domain).
func (r *Reader) Corrupt(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s (offset %d)", ErrCorrupt, fmt.Sprintf(format, args...), r.off)
	}
}
