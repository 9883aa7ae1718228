package sim_test

import (
	"regexp"
	"sort"
	"testing"

	"april/internal/bench"
	"april/internal/rts"
	"april/internal/sim"
)

// nodeIndex matches the per-instance part of a registry group name
// ("node12.proc" -> "node*.proc").
var nodeIndex = regexp.MustCompile(`^node\d+\.`)

// counterCell is one run of TestCountersWritten: the registry group
// kinds whose every counter the run must write on at least one node,
// and the counters it legitimately leaves at zero everywhere, each with
// its reason.
type counterCell struct {
	cfg          sim.Config
	groups       map[string]bool
	neverWritten map[string]string
}

var counterCells = map[string]counterCell{
	// 64 busy ALEWIFE nodes: the fabric's groups and the epoch
	// engine's lanes.
	"alewife64": {
		cfg: snapConfig{nodes: 64, aw: true}.simConfig(),
		groups: map[string]bool{
			"machine": true, "network": true, "scheduler": true, "memory": true,
			"compile": true, "epoch": true, "park": true, "node*.proc": true, "node*.memory": true,
		},
		neverWritten: func() map[string]string {
			nw := map[string]string{
				"epoch.lane_cuts_ipi":              "queens posts no IPI",
				"epoch.lane_cuts_word":             "eager queens: the run-time system reaches no word a lane touched ahead of it (lazy cells of TestLanesMatchReference do)",
				"epoch.lane_cuts_word_read":        "no word cuts (above)",
				"epoch.lane_cuts_end":              "the main thread exits while no lane runs ahead of it",
				"scheduler.steals":                 "continuation steals happen under lazy task creation only; this run is eager",
				"scheduler.steal_words":            "continuation steals happen under lazy task creation only; this run is eager",
				"scheduler.requeues":               "only a full/empty wait spinning past BlockRounds requeues; queens synchronizes through futures",
				"network.in_flight":                "gauge: the fabric drains before the main thread exits",
				"node*.memory.outstanding_remote":  "gauge: no miss is outstanding at the end of the run",
				"node*.memory.pending_home_tx":     "gauge: no home transaction is open at the end of the run",
				"node*.memory.deferred_recalls":    "gauge: no recall waits at the end of the run",
				"node*.memory.outstanding_flushes": "gauge: the program issues no FLUSH",
			}
			return nw
		}(),
	},
	// 4 perfect-memory nodes: the epoch engine's lanes without a fabric.
	"perfect4": {
		cfg: sim.Config{Nodes: 4, Profile: rts.APRIL},
		groups: map[string]bool{
			"machine": true, "scheduler": true, "memory": true, "compile": true,
			"epoch": true, "park": true, "node*.proc": true,
		},
		neverWritten: func() map[string]string {
			nw := map[string]string{
				"machine.wait_cycles":       "perfect memory never holds the processor",
				"node*.proc.wait_cycles":    "perfect memory never holds the processor",
				"scheduler.steals":          "continuation steals happen under lazy task creation only; this run is eager",
				"scheduler.steal_words":     "continuation steals happen under lazy task creation only; this run is eager",
				"scheduler.requeues":        "only a full/empty wait spinning past BlockRounds requeues; queens synchronizes through futures",
				"epoch.lane_cuts_fabric":    "perfect memory has no fabric",
				"epoch.lane_spares_fabric":  "perfect memory has no fabric",
				"epoch.lane_cuts_word":      "eager queens: no access outside the lanes reaches a word a lane touched ahead of it (the perfect-memory cells of TestLanesMatchReference do)",
				"epoch.lane_cuts_word_read": "no word cuts (above)",
				"epoch.lane_cuts_ipi":       "queens posts no IPI",
				"epoch.lane_cuts_end":       "the main thread exits while no lane runs ahead of it",
				"epoch.lane_undone_ops":     "no lane is cut back (above)",
				"epoch.lane_replayed_ops":   "no lane is cut back (above)",
			}
			return nw
		}(),
	},
}

// TestCountersWritten catches a counter that is exported but never
// incremented: after each cell's queens run, every key of the cell's
// registry groups must be non-zero on at least one node, unless the
// cell's neverWritten names it.
func TestCountersWritten(t *testing.T) {
	for name, cell := range counterCells {
		t.Run(name, func(t *testing.T) {
			m := build(t, bench.QueensSource(8), cell.cfg)
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			written := map[string]bool{}
			for group, counters := range m.CounterRegistry().Snapshot() {
				kind := nodeIndex.ReplaceAllString(group, "node*.")
				if !cell.groups[kind] {
					continue
				}
				for key, v := range counters {
					id := kind + "." + key
					written[id] = written[id] || v != 0
				}
			}
			var zero []string
			for id, ok := range written {
				if _, exempt := cell.neverWritten[id]; !ok && !exempt {
					zero = append(zero, id)
				}
			}
			sort.Strings(zero)
			for _, id := range zero {
				t.Errorf("%s is zero on every node", id)
			}
			for id := range cell.neverWritten {
				if _, ok := written[id]; !ok {
					t.Errorf("allowlisted %s is not in the registry", id)
				}
			}
		})
	}
}
