package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"

	"april"
)

// The model layer has no drive: its metrics are fidelity, not host
// cost — how far the simulated results are from the paper's Table 3
// (grid_perfect) and from its Eq. 1 (modelcheck16, summarised where
// that workload packages its rows).

//go:embed reference/table3_paper.json
var paperTable3JSON []byte

// paperRow is one row of the paper's Table 3.
type paperRow struct {
	Program string     `json:"program"`
	System  string     `json:"system"`
	MulTSeq float64    `json:"mult_seq"`
	Par     []*float64 `json:"par"` // by position in procs; nil = not reported
	procs   []int
}

func loadPaperTable3() ([]paperRow, error) {
	var doc struct {
		Procs []int      `json:"procs"`
		Rows  []paperRow `json:"rows"`
	}
	if err := json.Unmarshal(paperTable3JSON, &doc); err != nil {
		return nil, fmt.Errorf("reference/table3_paper.json: %w", err)
	}
	for i := range doc.Rows {
		doc.Rows[i].procs = doc.Procs
	}
	return doc.Rows, nil
}

// table3LogErr is the mean of |ln(measured / paper)| over every cell
// the paper reports and the grid measured: 0 is a perfect match, 0.1
// is about 10% off per cell in either direction.
func table3LogErr(rows []april.Table3Row, paper []paperRow) float64 {
	var sum float64
	var n int
	cell := func(measured, ref float64) {
		if measured > 0 && ref > 0 {
			sum += math.Abs(math.Log(measured / ref))
			n++
		}
	}
	for _, r := range rows {
		for _, p := range paper {
			if p.Program != r.Program || p.System != string(r.System) {
				continue
			}
			cell(r.MulTSeq, p.MulTSeq)
			for i, procs := range p.procs {
				if p.Par[i] != nil {
					cell(r.Par[procs], *p.Par[i])
				}
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
