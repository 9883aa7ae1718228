package main

import (
	"time"

	"april/internal/heap"
	"april/internal/mem"
)

// A drive measures one layer's unit cost from outside, by timing calls
// into the layer's public functions on streams generated from the seed.
// Drives live one file per layer (layers_<module>.go) so that a
// refactor of one package needs a one-file follow-up here.
type drive struct {
	metric string
	// only restricts the drive to one workload's traced run ("" = all).
	only string
	fn   func(e *driveEnv) (float64, error)
}

// driveEnv is what a drive may depend on: the seed, the sizes, and how
// long to measure.
type driveEnv struct {
	seed    int64
	sz      *sizes
	batch   time.Duration // minimum duration of one sample
	samples int           // samples per drive (median reported)
}

// perOp returns the median cost in ns of one of fn's n operations.
func (e *driveEnv) perOp(fn func(n int)) float64 { return perOp(e.batch, e.samples, fn) }

// perUnit is perOp for drives that must exclude their own set-up from
// the clock: fn performs one round and returns the units of work done
// and the time they took; rounds repeat until a sample has lasted
// e.batch. The result is the median ns per unit.
func (e *driveEnv) perUnit(fn func() (units uint64, d time.Duration, err error)) (float64, error) {
	out := make([]float64, e.samples)
	for i := range out {
		var units uint64
		var total time.Duration
		for total < e.batch {
			u, d, err := fn()
			if err != nil {
				return 0, err
			}
			if u == 0 {
				break
			}
			units += u
			total += d
		}
		if units > 0 {
			out[i] = float64(total.Nanoseconds()) / float64(units)
		}
	}
	return median(out), nil
}

func allDrives() []drive {
	var all []drive
	for _, ds := range [][]drive{
		multDrives, isaDrives, procDrives, rtsDrives, memDrives, cacheDrives,
		directoryDrives, networkDrives, simDrives, snapshotDrives, traceDrives,
	} {
		all = append(all, ds...)
	}
	return all
}

// runDrives runs every drive that applies to the workload and reports
// into ms. budget is the total time the drives may measure for; it is
// split evenly.
func runDrives(ms *metricSet, workload string, seed int64, sz *sizes, budget time.Duration, filter func(metric string) bool) error {
	var todo []drive
	for _, d := range allDrives() {
		if (d.only == "" || d.only == workload) && (filter == nil || filter(d.metric)) {
			todo = append(todo, d)
		}
	}
	if len(todo) == 0 {
		return nil
	}
	e := &driveEnv{seed: seed, sz: sz, samples: 5}
	if sz.smoke {
		e.samples = 1
	}
	// One calibration pass plus the samples share a drive's slice.
	e.batch = budget / time.Duration(len(todo)*(e.samples+2))
	for _, d := range todo {
		v, err := d.fn(e)
		if err != nil {
			return err
		}
		ms.set(d.metric, v)
	}
	return nil
}

// driveNodes is the machine size of a "_n64" (or, big, "_n1000") drive.
func (sz *sizes) driveNodes(big bool) int {
	if big {
		return sz.bigNodes
	}
	return sz.midNodes
}

const driveMemBytes = 256 << 20

// freshHeap is an empty static heap over an empty demand-paged memory,
// as sim.New hands the compiler.
func freshHeap() *heap.Heap {
	lay := mem.DefaultLayout(driveMemBytes)
	return heap.New(mem.New(driveMemBytes), mem.NewArena(lay.StaticBase, lay.StaticEnd))
}

// sink keeps results alive so the compiler cannot drop the measured
// calls.
var sink uint64
