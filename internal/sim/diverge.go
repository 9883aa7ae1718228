package sim

import (
	"errors"
	"fmt"
	"strings"

	"april/internal/snapshot"
)

// Diverge is the tier oracle: every test that holds two runs to each
// other (two tiers, a lane cap, a restored run and a straight one)
// calls it. It runs the machines a and b build side by side in
// RunWindow slices of slice cycles, then Run on both once the program
// is done, and returns nil when their images agree as built, at every
// slice boundary and at the end, and the runs end alike. When both end
// in the same error with the same image, it returns a's error.
// Otherwise its error names the first cycle whose images differ, the
// cycle before still agreeing, and the first field that differs there,
// by path, with both values:
//
//	cycle 1234: node 12 / cache / set 40 / way 2 / lru: 7 != 9
//
// To find that cycle it builds fresh machines from a and b and runs
// them up to each cycle it probes, in the same slices. It never
// restores an image, so whatever a builder sets up that no image
// carries (a test's lane cap, say) holds in every probe; a restored
// side is a builder that calls Restore.
func Diverge(a, b func() (*Machine, error), slice uint64) error {
	if slice == 0 {
		return errors.New("sim: Diverge needs slices of at least one cycle")
	}
	p := &runPair{build: [2]func() (*Machine, error){a, b}}
	if err := p.start(); err != nil {
		return err
	}
	if d := p.diff(); d != "" {
		return fmt.Errorf("sim: runs differ as built, at cycle %d: %s", p.m[0].now, d)
	}
	for k := 0; !p.done[0]; k++ {
		start := p.m[0].now
		p.run(slice)
		if d := p.diff(); d != "" {
			return p.firstDiff(slice, k, start, max(p.m[0].now, p.m[1].now, start+1)-start, d)
		}
		if p.err[0] != nil {
			return p.err[0]
		}
	}
	var res [2]Result
	for i, m := range p.m {
		res[i], p.err[i] = m.Run()
	}
	if d := p.diff(); d != "" {
		return fmt.Errorf("sim: runs differ at the end, cycle %d: %s", p.m[0].now, d)
	}
	if res[0] != res[1] {
		return fmt.Errorf("sim: runs end at cycle %d with results %+v and %+v", p.m[0].now, res[0], res[1])
	}
	return p.err[0]
}

// firstDiff bisects the slice after the k-th: fresh runs of k slices
// agree at cycle start and differ, as d says, span cycles later.
func (p *runPair) firstDiff(slice uint64, k int, start, span uint64, d string) error {
	lo, hi := uint64(0), span
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if err := p.start(); err != nil {
			return err
		}
		for range k {
			p.run(slice)
		}
		p.run(mid)
		if dm := p.diff(); dm != "" {
			hi, d = mid, dm
		} else {
			lo = mid
		}
	}
	return fmt.Errorf("sim: runs diverge at cycle %d: %s", start+hi, d)
}

// runPair is the two sides of a Diverge run: their builders, the
// machines built last, and a writer each for their images, kept for
// the whole call so that an image per boundary allocates nothing once
// the writers have grown.
type runPair struct {
	build [2]func() (*Machine, error)
	m     [2]*Machine
	err   [2]error
	done  [2]bool
	w     [2]*snapshot.Writer
}

// start builds both sides afresh.
func (p *runPair) start() error {
	for i, build := range p.build {
		m, err := build()
		if err != nil {
			return fmt.Errorf("sim: building side %c: %w", 'a'+i, err)
		}
		p.m[i], p.err[i], p.done[i] = m, nil, false
	}
	return nil
}

// run advances both sides by at most n cycles.
func (p *runPair) run(n uint64) {
	for i, m := range p.m {
		p.done[i], p.err[i] = m.RunWindow(n)
	}
}

// diff says how the two sides differ now, or returns "" when they
// agree: the first field their images (encodeImage's payloads) differ
// in, and their errors.
func (p *runPair) diff() string {
	for i, m := range p.m {
		if !m.loaded {
			return fmt.Sprintf("side %c has no program loaded", 'a'+i)
		}
		if p.w[i] == nil {
			p.w[i] = snapshot.NewWriter(0)
		}
		m.encodeImage(p.w[i])
	}
	var ds []string
	if d := snapshot.Diff(p.w[0].Bytes(), p.w[1].Bytes(), func(w *snapshot.Writer) {
		p.m[0].encodeImage(w)
	}); d != "" {
		ds = append(ds, d)
	}
	if ea, eb := fmt.Sprint(p.err[0]), fmt.Sprint(p.err[1]); ea != eb {
		ds = append(ds, fmt.Sprintf("side a: %s, side b: %s", ea, eb))
	} else if p.done[0] != p.done[1] {
		ds = append(ds, fmt.Sprintf("side a done %v, side b done %v", p.done[0], p.done[1]))
	}
	return strings.Join(ds, "; ")
}
