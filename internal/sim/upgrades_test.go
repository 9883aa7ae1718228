package sim_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"april/internal/bench"
	"april/internal/sim"
)

// memoryCounters returns every node's memory-system counter group as
// the registry exports it (-stats-json, /metrics).
func memoryCounters(m *sim.Machine) map[string]map[string]uint64 {
	out := map[string]map[string]uint64{}
	for g, kv := range m.CounterRegistry().Snapshot() {
		if strings.HasPrefix(g, "node") && strings.HasSuffix(g, ".memory") {
			out[g] = kv
		}
	}
	return out
}

// TestUpgradesCountedAcrossTiers: `upgrades` — write accesses that
// found the block resident without the exclusive copy — was exported
// but never incremented. The one hit routine counts it, so it must be
// non-zero on a 64-node queens run (stores into shared list cells) and,
// like every other memory counter, the same on both tiers: the
// clock-free caller refuses an upgrade untouched and the per-op caller
// counts it once.
func TestUpgradesCountedAcrossTiers(t *testing.T) {
	src := bench.QueensSource(6)
	mk := func(tier sim.Tier) sim.Config {
		return sim.Config{Nodes: 64, Alewife: &sim.AlewifeConfig{}, Tier: tier}
	}
	out, ref := diverge(t, func() *sim.Machine { return build(t, src, mk(sim.TierCompiled)) },
		func() *sim.Machine { return build(t, src, mk(sim.TierReference)) }, whole)
	want := memoryCounters(ref)
	var upgrades uint64
	for i := range ref.Nodes {
		upgrades += want[fmt.Sprintf("node%d.memory", i)]["upgrades"]
	}
	if upgrades == 0 {
		t.Fatal("no upgrades counted on 64-node queens")
	}
	if got := memoryCounters(out); !reflect.DeepEqual(got, want) {
		for g, kv := range got {
			if !reflect.DeepEqual(kv, want[g]) {
				t.Errorf("compiled: %s = %v, reference %v", g, kv, want[g])
			}
		}
	}
}
