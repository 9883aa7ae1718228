package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func loadRecord(path string) (*record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Workloads) == 0 {
		return nil, fmt.Errorf("%s: no workloads; is it a full record written with -out?", path)
	}
	return &r, nil
}

// worseBy is how much worse b is than a as a share of a, in the
// metric's own direction: positive is a regression.
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return 1
	}
	rel := (b - a) / a
	if d.Better == "higher" {
		rel = -rel
	}
	return rel
}

// spreadShare is the wider of the two sides' sample spreads — the
// distance between a side's quartiles as a share of its reported value.
func spreadShare(a, b metricValue) float64 {
	w := 0.0
	for _, v := range []metricValue{a, b} {
		if len(v.Samples) > 1 && v.Value != 0 {
			w = max(w, (quantile(v.Samples, 0.75)-quantile(v.Samples, 0.25))/v.Value)
		}
	}
	return w
}

// separated reports whether every sample of b reads better than every
// sample of a.
func separated(d metricDef, a, b metricValue) bool {
	if len(a.Samples) == 0 || len(b.Samples) == 0 {
		return false
	}
	if d.Better == "higher" {
		return quantile(b.Samples, 0) > quantile(a.Samples, 1)
	}
	return quantile(b.Samples, 1) < quantile(a.Samples, 0)
}

// compareFiles prints, per workload and metric, how record B differs
// from record A against the metric's bound, and reports whether B is
// free of breaches:
//
//   - an exact metric (simulated time, deterministic counts) must be
//     identical when both records used one seed;
//   - an end-to-end metric may be worse by at most its bound;
//   - a metric whose raw samples spread wider than its bound is
//     unresolved, not unchanged, unless every sample of B beats every
//     sample of A;
//   - per-layer host costs carry no bound and are printed for reading.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := loadRecord(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadRecord(pathB)
	if err != nil {
		return false, err
	}
	sameSeed := a.Seed == b.Seed && a.Scale == b.Scale
	fmt.Fprintf(w, "A: %s  commit %s  seed %d  %d cpu\nB: %s  commit %s  seed %d  %d cpu\n",
		pathA, a.Host.Commit, a.Seed, a.Host.NumCPU, pathB, b.Host.Commit, b.Seed, b.Host.NumCPU)
	if !sameSeed {
		fmt.Fprintln(w, "seeds or scales differ: exact metrics are held to their bounds, not to identity")
	}
	breaches, unresolved := 0, 0
	for _, wl := range workloads {
		wa, wb := a.Workloads[wl.name], b.Workloads[wl.name]
		if wa == nil || wb == nil {
			fmt.Fprintf(w, "%-20s MISSING from one record\n", wl.name)
			breaches++
			continue
		}
		if wb.Failed > wa.Failed {
			fmt.Fprintf(w, "%-20s BREACH  failed operations %d -> %d\n", wl.name, wa.Failed, wb.Failed)
			breaches++
		}
		row := func(d metricDef, va, vb metricValue, bounded bool) {
			rel := worseBy(d, va.Value, vb.Value)
			verdict := "ok"
			switch {
			case d.Exact && sameSeed:
				if va.Value != vb.Value {
					verdict = "BREACH (exact)"
					breaches++
				}
			case !bounded:
				verdict = "-"
			case rel > d.Bound:
				verdict = "BREACH"
				breaches++
			case spreadShare(va, vb) > d.Bound && !separated(d, va, vb):
				verdict = "unresolved"
				unresolved++
			}
			bound := "      -"
			if bounded {
				bound = fmt.Sprintf("%6.1f%%", 100*d.Bound)
			}
			fmt.Fprintf(w, "%-20s %-38s %14.6g -> %-14.6g %-6s worse by %+7.2f%%  bound %s  %s\n",
				wl.name, d.Name, va.Value, vb.Value, d.Unit, 100*rel, bound, verdict)
		}
		for _, d := range endToEnd {
			row(d, wa.EndToEnd[d.Name], wb.EndToEnd[d.Name], true)
		}
		for _, d := range perLayer {
			va, vb := wa.PerLayer[d.Name], wb.PerLayer[d.Name]
			if va.Value != 0 || vb.Value != 0 { // 0 on both sides: the workload cannot see it
				row(d, va, vb, false)
			}
		}
	}
	fmt.Fprintf(w, "%d breach(es), %d unresolved\n", breaches, unresolved)
	return breaches == 0, nil
}
