package mem

import (
	"fmt"

	"april/internal/isa"
)

// Snapshot support. A machine image needs only the resident pages — a
// page that is not resident reads as zero and full — and, because
// residency is observable (the resident-page counters and the size of
// the next image), restore must reproduce the exact residency map, not
// just the exact contents. There is one notion of residency: a page is
// resident with its words and its full/empty bits, or not at all.

const (
	// PageWords is the number of words per demand page and PageFEWords
	// the number of 64-bit full/empty bitmap words beside them (exported
	// for snapshot encoders that size page payloads); PageBytes is what
	// one resident page costs the host, and an image.
	PageWords   = pageWords
	PageFEWords = pageWords / 64
	PageBytes   = PageWords*WordBytes + PageFEWords*8
)

// Resident returns the number of resident pages.
func (m *Memory) Resident() int { return m.resident }

// Reset evicts every resident page, returning the store to its
// untouched state. Restore calls it before installing an image's pages
// so residency afterwards matches the image exactly — pages the
// original run never touched but this process did (e.g. during program
// loading) must not stay resident.
func (m *Memory) Reset() {
	clear(m.groups)
	m.resident = 0
}

// DumpResident calls fn for every resident page in ascending page
// order (page id = word index >> 10). The arrays are the live backing
// store — callers must copy, not retain.
func (m *Memory) DumpResident(fn func(id uint32, words *[PageWords]isa.Word, fe *[PageFEWords]uint64)) {
	for gi, g := range m.groups {
		if g == nil {
			continue
		}
		for pi, p := range g {
			if p != nil {
				fn(uint32(gi*groupPages+pi), &p.words, &p.fe)
			}
		}
	}
}

// InstallPage makes page id resident and returns its words and
// full/empty bitmap for the caller to fill: the restore-side
// counterpart of DumpResident. The id is bounded by the memory's size,
// not the table's length — the last group may be only partly inside the
// memory — and a page can be installed once.
func (m *Memory) InstallPage(id uint32) (*[PageWords]isa.Word, *[PageFEWords]uint64, error) {
	if npages := (m.size/WordBytes + pageMask) >> pageShift; id >= npages {
		return nil, nil, fmt.Errorf("mem: page %d out of range (%d pages)", id, npages)
	}
	if m.find(id<<pageShift) != nil {
		return nil, nil, fmt.Errorf("mem: page %d installed twice", id)
	}
	p := m.page(id << pageShift)
	return &p.words, &p.fe, nil
}
