package snapshot

// Naming an image's bytes. To say where two images first differ, a
// diff re-encodes one of them with a locator attached to the Writer:
// the encoders name what they write as they write it — the record
// codec every field it walks, the hand-written sections each node,
// page, cache line, directory entry and controller they open (Enter)
// and each value they write (Field) — and the locator keeps the name
// of the field that holds the byte asked about. With no locator
// attached, Enter, Leave and Field return at once: an encoding pays a
// nil test per call and writes the same bytes.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
)

// locator names the field that holds one payload byte.
type locator struct {
	at    int     // the payload offset to name
	open  []label // sections open now
	path  []label // sections open where the field holding at began
	name  string  // that field, a run of width-byte elements from start
	start int
	width int
	end   int // one past the field's last byte; -1 until the encoding passes at
}

type label struct {
	name string
	idx  int // -1: none
}

func (l label) String() string {
	switch {
	case l.idx < 0:
		return l.name
	case l.name == "":
		return fmt.Sprint(l.idx)
	}
	return fmt.Sprintf("%s %d", l.name, l.idx)
}

// mark ends the field holding at once the encoding reaches off past it.
func (l *locator) mark(off int) {
	if l.end < 0 && off > l.at {
		l.end = off
	}
}

// Enter opens a section named name, and idx when it is not negative.
func (w *Writer) Enter(name string, idx int) {
	if l := w.loc; l != nil {
		l.mark(w.Len())
		l.open = append(l.open, label{name, idx})
	}
}

// Leave closes the section Enter opened last.
func (w *Writer) Leave() {
	if l := w.loc; l != nil {
		l.mark(w.Len())
		l.open = l.open[:len(l.open)-1]
	}
}

// Field names what the encoder writes next, up to the next Enter,
// Leave or Field: one value width bytes wide, or a run of them. It
// returns w, so a value and its name take one line.
func (w *Writer) Field(name string, width int) *Writer {
	if l := w.loc; l != nil {
		off := w.Len()
		l.mark(off)
		if off <= l.at {
			l.path = append(l.path[:0], l.open...)
			l.name, l.start, l.width = name, off, width
		}
	}
	return w
}

// PutIn is Put inside a section named name (and idx, when it is not
// negative).
func PutIn[T any](w *Writer, name string, idx int, v *T) {
	w.Enter(name, idx)
	Put(w, v)
	w.Leave()
}

// Diff names the first byte at which payloads pa and pb differ, or
// returns "" when they are equal. encode writes pa again, naming its
// fields: the result is the field's path and both payloads' values of
// it, "node 12 / cache / set 40 / way 2 / lru: 7 != 9", with an element
// of a run indexed, "words[37]".
func Diff(pa, pb []byte, encode func(*Writer)) string {
	if bytes.Equal(pa, pb) {
		return ""
	}
	at := 0
	for at < len(pa) && at < len(pb) && pa[at] == pb[at] {
		at++
	}
	w := NewWriter(len(pa))
	l := &locator{at: at, end: -1}
	w.loc = l
	encode(w)
	if l.end < 0 {
		l.end = w.Len()
	}
	var path []string
	for _, s := range l.path {
		path = append(path, s.String())
	}
	name, elem, width := l.name, l.start, max(l.width, 1)
	if l.end-l.start > width {
		i := (at - l.start) / width
		name, elem = fmt.Sprintf("%s[%d]", name, i), l.start+i*width
	}
	path = append(path, name)
	return fmt.Sprintf("%s: %s != %s", strings.Join(path, " / "), value(pa, elem, width), value(pb, elem, width))
}

// value reads the width-byte element at off of a payload.
func value(p []byte, off, width int) string {
	if off+width > len(p) {
		return "end of image"
	}
	switch v := p[off : off+width]; width {
	case 1:
		return fmt.Sprint(v[0])
	case 4:
		return fmt.Sprint(binary.LittleEndian.Uint32(v))
	case 8:
		return fmt.Sprint(int64(binary.LittleEndian.Uint64(v)))
	default:
		return fmt.Sprintf("%x", v)
	}
}
