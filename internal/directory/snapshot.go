package directory

import "slices"

// DumpEntries calls fn for every allocated entry in ascending block
// order. Snapshot encoders use it: re-inserting the same entries in
// the same order on restore rebuilds an equivalent table (the probe
// layout may differ, but only Entry/Probe behavior is observable, and
// that depends solely on the block→entry mapping), and the order is
// the table's keys sorted, so no table layout reaches an image. Each
// entry is one key<<32|slot word, so ordering them is a plain integer
// sort.
func (d *Directory) DumpEntries(fn func(block uint32, e *Entry)) {
	order := make([]uint64, 0, d.used)
	for i, k := range d.keys {
		if k != 0 {
			order = append(order, uint64(k)<<32|uint64(i))
		}
	}
	slices.Sort(order)
	for _, o := range order {
		fn(uint32(o>>32)-1, &d.ents[uint32(o)])
	}
}

// Reserve sizes the table for n entries in all, at the length growth
// would reach for them (the 3/4 load rule), so a restore that
// re-inserts an image's n entries rehashes at most once instead of at
// every doubling. Reserve(0) allocates nothing.
func (d *Directory) Reserve(n int) {
	if n == 0 {
		return
	}
	if size := sizeFor(n); size > len(d.keys) {
		d.resize(size)
	}
}
