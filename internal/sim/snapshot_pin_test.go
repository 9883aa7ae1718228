package sim_test

// The image format pinned byte for byte: each configuration's image
// length and FNV-64a hash. A change to any walked record's fields, or
// to a hand-written section, moves a row here; that is a format change
// and needs snapshot.Version bumped along with the new values.

import (
	"fmt"
	"testing"

	"april/internal/bench"
	"april/internal/mult"
	"april/internal/sim"
	"april/internal/snapshot"
)

// pinMachine builds and loads src under cfg, compiled with lazy task
// creation when lazy is set.
func pinMachine(t *testing.T, src string, cfg sim.Config, lazy bool) *sim.Machine {
	t.Helper()
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := mult.Compile(src, mult.Mode{HardwareFutures: true, LazyFutures: lazy}, m.StaticHeap())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(prog); err != nil {
		t.Fatal(err)
	}
	return m
}

// runTo advances m to cycle, which must come before the run ends.
func runTo(t *testing.T, m *sim.Machine, cycle uint64) *sim.Machine {
	t.Helper()
	if done, err := m.RunWindow(cycle - m.Now()); err != nil || done {
		t.Fatalf("RunWindow to %d = %v, %v", cycle, done, err)
	}
	return m
}

// pinnedImages are the configurations whose images are pinned: every
// section and every kind of walked field (maps, pointers, nested
// slices) is non-empty in at least one of them.
var pinnedImages = []struct {
	name  string
	build func(t *testing.T) *sim.Machine
	bytes int
	hash  uint64
}{
	{"perfect-4", func(t *testing.T) *sim.Machine {
		return runTo(t, pinMachine(t, bench.FibSource(12), snapConfig{nodes: 4}.simConfig(), false), 6000)
	}, 202986, 0x321ab64d45562a60},
	{"torus16-faults", func(t *testing.T) *sim.Machine {
		cfg := snapConfig{nodes: 16, aw: true, faults: true}.simConfig()
		return runTo(t, pinMachine(t, bench.QueensSource(6), cfg, false), 6446)
	}, 406117, 0xf21c58d5ab4d658e},
	{"ideal-alewife", func(t *testing.T) *sim.Machine {
		cfg := snapConfig{nodes: 32}.simConfig()
		cfg.Alewife = &sim.AlewifeConfig{IdealNet: true, IdealLat: 20}
		return runTo(t, pinMachine(t, bench.QueensSource(8), cfg, false), 11839)
	}, 1093177, 0x2e217b1220e2f48f},
	{"lazy", func(t *testing.T) *sim.Machine {
		cfg := snapConfig{nodes: 4, aw: true}.simConfig()
		cfg.Lazy = true
		return runTo(t, pinMachine(t, bench.FibSource(10), cfg, true), 8000)
	}, 302425, 0x6a093a95d10acd65},
	{"traced-timeline", func(t *testing.T) *sim.Machine {
		m := pinMachine(t, bench.FibSource(10), snapConfig{nodes: 4, aw: true}.simConfig(), false)
		m.EnableTracing(0)
		m.EnableTimeline(500)
		return runTo(t, m, 7000)
	}, 299575, 0x24b679a3e952f12f},
	{"finished", func(t *testing.T) *sim.Machine {
		m := pinMachine(t, bench.FibSource(8), snapConfig{nodes: 4, aw: true}.simConfig(), false)
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m
	}, 252178, 0xc11ae302bf74fe0d},
	{"ckpt64", func(t *testing.T) *sim.Machine { return queensDonor(t, 64) }, 3563573, 0x6b6d3b3d660bfbc5},
}

// TestSnapshotImageBytes: the images of the pinned configurations are
// byte-identical to the format's reference values.
func TestSnapshotImageBytes(t *testing.T) {
	for _, c := range pinnedImages {
		t.Run(c.name, func(t *testing.T) {
			img, err := c.build(t).Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("%d bytes, hash %#016x", len(img), snapshot.Hash(img))
			if want := fmt.Sprintf("%d bytes, hash %#016x", c.bytes, c.hash); got != want {
				t.Errorf("image is %s, want %s", got, want)
			}
		})
	}
}

// TestSnapshotImageCoverage: across the pinned images every controller
// table (and a queued request inside a home transaction), a packet in
// a torus channel, a blocked-waiter list and a retry-tracker list hold
// at least one entry, so the pins cover the codec's map, pointer and
// nested-slice layouts, not just empty counts.
func TestSnapshotImageCoverage(t *testing.T) {
	total := map[string]int{}
	for _, c := range pinnedImages {
		for k, v := range sim.ImageCoverage(c.build(t)) {
			total[k] += v
		}
	}
	for _, k := range []string{"pending", "homeTx", "homeTx queued", "outbox", "recallQ", "locked",
		"torus packets", "waiter lists", "retry trackers"} {
		if total[k] == 0 {
			t.Errorf("no pinned image holds any %s", k)
		}
	}
}
