package sim_test

// The image format pinned byte for byte: each configuration's image
// length and FNV-64a hash. A change to any walked record's fields, or
// to a hand-written section, moves a row here; that is a format change
// and needs snapshot.Version bumped along with the new values.

import (
	"fmt"
	"testing"

	"april/internal/bench"
	"april/internal/sim"
	"april/internal/snapshot"
)

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
		return runTo(t, build(t, bench.FibSource(12), snapConfig{nodes: 4}.simConfig()), 6000)
	}, 202986, 0x5ebc8d3d5c0630d7},
	{"torus16-faults", func(t *testing.T) *sim.Machine {
		cfg := snapConfig{nodes: 16, aw: true, faults: true}.simConfig()
		return runTo(t, build(t, bench.QueensSource(6), cfg), 6446)
	}, 405989, 0x36d10b78d0f73e82},
	{"ideal-alewife", func(t *testing.T) *sim.Machine {
		cfg := snapConfig{nodes: 32}.simConfig()
		cfg.Alewife = &sim.AlewifeConfig{IdealNet: true, IdealLat: 20}
		return runTo(t, build(t, bench.QueensSource(8), cfg), 11839)
	}, 1092921, 0x07e6565843a1f852},
	{"lazy", func(t *testing.T) *sim.Machine {
		cfg := snapConfig{nodes: 4, aw: true}.simConfig()
		cfg.Lazy = true
		return runTo(t, build(t, bench.FibSource(10), cfg), 8000)
	}, 302393, 0x66189526af5488ab},
	{"traced-timeline", func(t *testing.T) *sim.Machine {
		m := build(t, bench.FibSource(10), snapConfig{nodes: 4, aw: true}.simConfig())
		m.EnableTracing(0)
		m.EnableTimeline(500)
		return runTo(t, m, 7000)
	}, 299543, 0x3d1b03ffea395249},
	{"finished", func(t *testing.T) *sim.Machine {
		m := build(t, bench.FibSource(8), snapConfig{nodes: 4, aw: true}.simConfig())
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m
	}, 252146, 0x7f697e136f1488ff},
	{"ckpt64", func(t *testing.T) *sim.Machine { return queensDonor(t, 64) }, 3563061, 0x4dcf5609ec5fce96},
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
