package main

import (
	"math"
	"sort"
	"time"
)

func secondsDuration(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// median of xs (mean of the two middle values for an even count); 0 for
// an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

// perOp times fn(n), which must perform n operations, and returns the
// median cost of one operation in nanoseconds over `samples` batches.
// n is doubled until one batch lasts at least batchDur, so the clock's
// resolution and the call overhead are amortised the same way for a
// 2 ns cache lookup and a 100 us machine build.
func perOp(batchDur time.Duration, samples int, fn func(n int)) float64 {
	n := 1
	for {
		t0 := time.Now()
		fn(n)
		if d := time.Since(t0); d >= batchDur || n >= 1<<30 {
			break
		}
		n *= 2
	}
	out := make([]float64, samples)
	for i := range out {
		t0 := time.Now()
		fn(n)
		out[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(out)
}
