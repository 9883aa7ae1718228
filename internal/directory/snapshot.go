package directory

import "slices"

// DumpEntries calls fn for every allocated entry in ascending block
// order. Snapshot encoders use it: re-inserting the same entries in
// the same order on restore rebuilds an equivalent table (the probe
// layout may differ, but only Entry/Probe behavior is observable, and
// that depends solely on the block→entry mapping). Each entry is one
// block<<32|slot key, so ordering them is a plain integer sort.
func (d *Directory) DumpEntries(fn func(block uint32, e *Entry)) {
	keys := make([]uint64, 0, d.used)
	for i := range d.slots {
		if d.slots[i].live {
			keys = append(keys, uint64(d.slots[i].block)<<32|uint64(i))
		}
	}
	slices.Sort(keys)
	for _, k := range keys {
		s := &d.slots[uint32(k)]
		fn(s.block, &s.entry)
	}
}

// Reserve sizes the table for n entries in all, at the length growth
// would reach for them (the 3/4 load rule), so a restore that
// re-inserts an image's n entries rehashes at most once instead of at
// every doubling from 64 slots.
func (d *Directory) Reserve(n int) {
	size := len(d.slots)
	for n*4 > size*3 {
		size *= 2
	}
	if size > len(d.slots) {
		d.resize(size)
	}
}
