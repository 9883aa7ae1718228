package sim_test

// The counter registry pinned byte for byte: each cell's
// Registry.WriteJSON length and FNV-64a hash. The same snapshot feeds
// `april -counters` and /metrics, so a pin that moves means a key was
// added, dropped, renamed or computed differently. Regenerate with
//
//	go test -run TestCounterSnapshotGolden -update ./internal/sim/

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"april"
	"april/internal/bench"
	"april/internal/core"
	"april/internal/mult"
	"april/internal/rts"
	"april/internal/sim"
	"april/internal/snapshot"
)

var update = flag.Bool("update", false, "rewrite testdata/counters.golden from this run")

const counterGoldenPath = "testdata/counters.golden"

// goldenCounterCells are the pinned runs: queens 8 on TestCountersWritten's
// cells, and a 16-node faulted torus on the reference tier, where the
// compile and park groups are absent and the network counts hops.
func goldenCounterCells() map[string]sim.Config {
	faulted := snapConfig{nodes: 16, aw: true, faults: true}.simConfig()
	faulted.Tier = sim.TierReference
	return map[string]sim.Config{
		"alewife64":          counterCells["alewife64"].cfg,
		"perfect4":           counterCells["perfect4"].cfg,
		"torus16-faults-ref": faulted,
	}
}

func TestCounterSnapshotGolden(t *testing.T) {
	got := map[string]string{}
	for name, cfg := range goldenCounterCells() {
		m := build(t, bench.QueensSource(8), cfg)
		if _, err := m.Run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var buf bytes.Buffer
		if err := m.CounterRegistry().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		got[name] = fmt.Sprintf("%d bytes, hash %#016x", buf.Len(), snapshot.Hash(buf.Bytes()))
	}
	if *update {
		var names []string
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "%s: %s\n", name, got[name])
		}
		if err := os.MkdirAll(filepath.Dir(counterGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(counterGoldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(counterGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, pin, ok := strings.Cut(sc.Text(), ": ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[name] = pin
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for name, g := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no pin in %s", name, counterGoldenPath)
		} else if g != w {
			t.Errorf("%s: counter snapshot is %s, want %s", name, g, w)
		}
	}
}

// TestCounterSurfacesAgree: one ALEWIFE run reports the same totals
// through april.Result, bench.RunStats and the registry snapshot. Each
// pair is compared where both carry the count: RunStats has no
// scheduler counts, and the registry no trap counts.
func TestCounterSurfacesAgree(t *testing.T) {
	src := bench.QueensSource(8)
	for _, lazy := range []bool{false, true} {
		var counters bytes.Buffer
		res, err := april.Run(src, april.Options{Processors: 16, LazyFutures: lazy,
			Alewife: &april.AlewifeOptions{}, Trace: &april.TraceOptions{CountersOut: &counters}})
		if err != nil {
			t.Fatal(err)
		}
		rs, err := bench.RunOnce(sim.Config{Nodes: 16, Profile: rts.APRIL, Lazy: lazy, Alewife: &sim.AlewifeConfig{}},
			src, mult.Mode{HardwareFutures: true, LazyFutures: lazy})
		if err != nil {
			t.Fatal(err)
		}
		var snap map[string]map[string]uint64
		if err := json.Unmarshal(counters.Bytes(), &snap); err != nil {
			t.Fatal(err)
		}
		var switches uint64
		for i := 0; i < 16; i++ {
			switches += snap[fmt.Sprintf("node%d.proc", i)]["switches"]
		}
		mach, sched := snap["machine"], snap["scheduler"]
		for _, c := range []struct {
			name  string
			res   uint64
			other []uint64
		}{
			{"cycles", res.Cycles, []uint64{rs.Cycles, mach["cycles"]}},
			{"instructions", res.Instructions, []uint64{rs.Total.Instructions, mach["instructions"]}},
			{"switches", res.ContextSwitches, []uint64{rs.ContextSwitches, switches}},
			{"tasks", res.TasksCreated, []uint64{sched["tasks_created"]}},
			{"steals", res.Steals, []uint64{sched["steals"]}},
			{"touches resolved", res.TouchesResolved, []uint64{sched["touches_resolved"]}},
			{"touches unresolved", res.TouchesUnresolved, []uint64{sched["touches_unresolved"]}},
			{"cache-miss traps", res.CacheMissTraps, []uint64{rs.Total.Traps[core.TrapCacheMiss]}},
		} {
			for _, o := range c.other {
				if o != c.res {
					t.Errorf("lazy=%v: %s: Result %d, other surfaces %v", lazy, c.name, c.res, c.other)
					break
				}
			}
		}
		if res.Steals == 0 && lazy || res.TasksCreated == 0 && !lazy || res.CacheMissTraps == 0 {
			t.Errorf("lazy=%v: run exercised too little: %+v", lazy, res)
		}
	}
}
