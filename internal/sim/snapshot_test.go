package sim_test

// Checkpoint/restore differential tests. The headline contract: a
// machine snapshotted mid-run and restored must reach a bit-identical
// end state — same cycle count, same answer, same per-node Stats — as
// the machine that kept running, across every cell of the
// (program x memory system x machine size x faults)
// matrix, and across execution tiers (an image written by the compiled
// tier restores under the reference loop, and vice versa). Malformed
// images must fail with structured errors, never panics. All tests
// here match `go test -run Snapshot`, which CI also runs under -race.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"april/internal/bench"
	"april/internal/cache"
	"april/internal/fault"
	"april/internal/isa"
	"april/internal/mem"
	"april/internal/network"
	"april/internal/rts"
	"april/internal/sim"
	"april/internal/snapshot"
)

type snapConfig struct {
	nodes  int
	aw     bool
	faults bool
}

func (c snapConfig) simConfig() sim.Config {
	var aw *sim.AlewifeConfig
	if c.aw {
		aw = &sim.AlewifeConfig{}
	}
	var fc *fault.Config
	if c.faults {
		f := fault.Default(9)
		fc = &f
	}
	return sim.Config{
		Nodes:   c.nodes,
		Profile: rts.APRIL,
		Alewife: aw,
		Faults:  fc,
	}
}

// restored builds src on cfg, runs it to cycle and returns the machine
// Restore makes of its image under ov.
func restored(t *testing.T, src string, cfg sim.Config, cycle uint64, ov sim.RestoreOverrides) func() *sim.Machine {
	return func() *sim.Machine { return restore(t, runTo(t, build(t, src, cfg), cycle), ov) }
}

// restore returns the machine Restore makes of m's image under ov.
func restore(t *testing.T, m *sim.Machine, ov sim.RestoreOverrides) *sim.Machine {
	t.Helper()
	img, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := sim.Restore(img, ov)
	if err != nil {
		t.Fatal(err)
	}
	return m2
}

// TestSnapshotDifferentialMatrix: snapshot at a mid-run boundary,
// restore, run both to the end — every cell must be bit-identical.
func TestSnapshotDifferentialMatrix(t *testing.T) {
	programs := map[string]string{
		"fib":    bench.FibSource(10),
		"queens": bench.QueensSource(5),
	}
	for name, src := range programs {
		for _, aw := range []bool{false, true} {
			mode := "perfect"
			if aw {
				mode = "alewife"
			}
			for _, nodes := range []int{1, 4, 64} {
				for _, faults := range []bool{false, true} {
					if faults && !aw {
						continue // fault plans perturb the memory fabric; perfect memory has none
					}
					// "1shards" keeps the cell names stable: every
					// run steps its machine on one goroutine.
					cell := fmt.Sprintf("%s/%s/%dp/1shards/faults=%v", name, mode, nodes, faults)
					t.Run(cell, func(t *testing.T) {
						cfg := snapConfig{nodes: nodes, aw: aw, faults: faults}.simConfig()
						diverge(t, func() *sim.Machine { return runTo(t, build(t, src, cfg), 2048) },
							restored(t, src, cfg, 2048, sim.RestoreOverrides{}), whole)
					})
				}
			}
		}
	}
}

// TestSnapshotDoesNotPerturb: taking a snapshot mid-run must not change
// the run — the snapshotted machine's end state matches a machine that
// ran straight through.
func TestSnapshotDoesNotPerturb(t *testing.T) {
	src := bench.QueensSource(5)
	cfg := snapConfig{nodes: 8, aw: true}.simConfig()
	// Each side runs whole inside its builder: Diverge compares only
	// the finished machines, and takes no image of the straight run.
	diverge(t, func() *sim.Machine {
		m := build(t, src, cfg)
		finish(t, m)
		return m
	}, func() *sim.Machine {
		m := runTo(t, build(t, src, cfg), 2048)
		if _, err := m.Snapshot(); err != nil {
			t.Fatal(err)
		}
		finish(t, m)
		return m
	}, whole)
}

// TestSnapshotCrossTierRestore: one image, written by the default
// (compiled) tier, restored under both tiers and with the checkers
// armed — all reaching the same end
// state. Tier choice is a host decision and must never leak into
// simulated results.
func TestSnapshotCrossTierRestore(t *testing.T) {
	src := bench.FibSource(10)
	cfg := snapConfig{nodes: 8, aw: true}.simConfig()
	donor := func() *sim.Machine { return runTo(t, build(t, src, cfg), 2048) }
	img, err := donor().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	tiers := map[string]sim.RestoreOverrides{
		"compiled":  {},
		"reference": {Tier: sim.TierReference},
		"checked":   {Check: true},
	}
	for name, ov := range tiers {
		t.Run(name, func(t *testing.T) {
			diverge(t, donor, func() *sim.Machine {
				m, err := sim.Restore(img, ov)
				if err != nil {
					t.Fatal(err)
				}
				return m
			}, whole)
		})
	}
}

// TestSnapshotAfterRunTierInvariant: an image of a finished run does
// not depend on the tier. The reference loop stops stepping at the node
// that ends the run, yet the final cycle passes for every later node
// inside an operation — the raw cell's node 1 sits in an idle poll when
// node 0's main returns.
func TestSnapshotAfterRunTierInvariant(t *testing.T) {
	raw, err := isa.Assemble(`
.entry main
main:   movi r9, 40
spin:   subcc r9, r9, 4
        bg spin
        movi r8, 4
        jmpl r0, r5+0
__task_exit: trap 2
        halt
__main_exit: trap 1
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	cells := map[string]func(sim.Tier) *sim.Machine{
		"raw-2p": func(tier sim.Tier) *sim.Machine {
			m, err := sim.New(sim.Config{Nodes: 2, Profile: rts.APRIL, Tier: tier})
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Load(raw); err != nil {
				t.Fatal(err)
			}
			return m
		},
		"queens-alewife-8p": func(tier sim.Tier) *sim.Machine {
			return build(t, bench.QueensSource(6), sim.Config{Nodes: 8, Alewife: &sim.AlewifeConfig{}, Tier: tier})
		},
	}
	for name, mk := range cells {
		t.Run(name, func(t *testing.T) {
			diverge(t, func() *sim.Machine { return mk(sim.TierCompiled) },
				func() *sim.Machine { return mk(sim.TierReference) }, whole)
		})
	}
}

// TestTierOutOfRange: a tier outside the two is an error from New
// and from Restore (not a corrupt image: the image is fine), never a
// silent fallback; every tier's name parses back to it.
func TestTierOutOfRange(t *testing.T) {
	bad := sim.TierReference + 1
	if _, err := sim.New(sim.Config{Tier: bad, Profile: rts.APRIL}); err == nil {
		t.Error("New accepted an out-of-range tier")
	}
	m := build(t, bench.FibSource(5), snapConfig{nodes: 2}.simConfig())
	img, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Restore(img, sim.RestoreOverrides{Tier: bad}); err == nil || errors.Is(err, snapshot.ErrCorrupt) {
		t.Errorf("Restore with an out-of-range tier: %v, want a non-corrupt-image error", err)
	}
	for _, tier := range sim.Tiers {
		var got sim.Tier
		if err := got.Set(tier.String()); err != nil || got != tier {
			t.Errorf("Set(%q) = %v, %v", tier, got, err)
		}
	}
	var got sim.Tier
	if err := got.Set("fast"); err == nil {
		t.Error(`Set("fast") accepted an unknown tier name`)
	}
}

// TestSnapshotRepeatedWindows: checkpoint every window of an
// eight-window run and restore each image; every restored continuation
// must agree with the original. This exercises boundaries in all run
// phases — startup, steady state, near completion.
func TestSnapshotRepeatedWindows(t *testing.T) {
	src := bench.FibSource(9)
	cfg := snapConfig{nodes: 4, aw: true}.simConfig()
	// straight(i) is the run after i+1 windows, done true if it ended.
	straight := func(i int) (m *sim.Machine, done bool) {
		m = build(t, src, cfg)
		for w := 0; w <= i && !done; w++ {
			var err error
			if done, err = m.RunWindow(1024); err != nil {
				t.Fatal(err)
			}
		}
		return m, done
	}
	for i, done := 0, false; i < 8 && !done; i++ {
		t.Logf("image %d", i)
		diverge(t, func() (m *sim.Machine) { m, done = straight(i); return m },
			func() *sim.Machine { m, _ := straight(i); return restore(t, m, sim.RestoreOverrides{}) }, whole)
	}
}

// TestSnapshotConfigHash: images from the same run carry the same
// identity hash; changing the machine-defining configuration or the
// program changes it; host knobs (tier selection) do not.
func TestSnapshotConfigHash(t *testing.T) {
	hash := func(src string, cfg sim.Config) uint64 {
		m := build(t, src, cfg)
		h, err := m.ConfigHash()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	// New fills the shared *AlewifeConfig in place, so every machine
	// gets a freshly built Config.
	base := func() sim.Config { return snapConfig{nodes: 4, aw: true}.simConfig() }
	src := bench.FibSource(8)
	h0 := hash(src, base())

	if h := hash(src, base()); h != h0 {
		t.Errorf("same config hashes differ: %#x vs %#x", h, h0)
	}
	reference := base()
	reference.Tier = sim.TierReference
	if h := hash(src, reference); h != h0 {
		t.Errorf("host knob (tier) changed the config hash")
	}
	bigger := base()
	bigger.Nodes = 8
	if h := hash(src, bigger); h == h0 {
		t.Errorf("node count change did not change the config hash")
	}
	if h := hash(bench.FibSource(9), base()); h == h0 {
		t.Errorf("program change did not change the config hash")
	}

	// The image header carries the same hash ConfigHash reports.
	m := build(t, src, base())
	img, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := snapshot.PeekHeader(img)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.ConfigHash != h0 {
		t.Errorf("header hash %#x, ConfigHash %#x", hdr.ConfigHash, h0)
	}
}

// TestSnapshotImageValidation: malformed images fail with structured
// errors classifiable by errors.Is — never a panic, never a silently
// wrong machine.
func TestSnapshotImageValidation(t *testing.T) {
	m := build(t, bench.FibSource(8), snapConfig{nodes: 4, aw: true}.simConfig())
	if _, err := m.RunWindow(1024); err != nil {
		t.Fatal(err)
	}
	img, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, mutate func([]byte) []byte, want error) {
		t.Run(name, func(t *testing.T) {
			bad := mutate(append([]byte(nil), img...))
			_, err := sim.Restore(bad, sim.RestoreOverrides{})
			if err == nil {
				t.Fatal("restore of malformed image succeeded")
			}
			if want != nil && !errors.Is(err, want) {
				t.Fatalf("error %v, want %v", err, want)
			}
		})
	}

	check("bad-magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, snapshot.ErrMagic)
	check("bad-version", func(b []byte) []byte { b[8] = 99; return b }, snapshot.ErrVersion)
	check("truncated-header", func(b []byte) []byte { return b[:20] }, snapshot.ErrTruncated)
	check("truncated-payload", func(b []byte) []byte { return b[:len(b)-100] }, snapshot.ErrTruncated)
	check("flipped-payload-byte", func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b }, snapshot.ErrChecksum)
	// A shortened payload resealed with a valid header+checksum passes
	// Open and must fail in the decoder as a structured truncation.
	check("resealed-short", func(b []byte) []byte {
		hdr, _ := snapshot.PeekHeader(b)
		payload := b[44 : len(b)-200]
		return snapshot.Seal(payload, hdr.ConfigHash, hdr.Cycle)
	}, snapshot.ErrTruncated)

	// Block ^uint32(0) has no key in a directory table (no address
	// reaches it): an image naming it is corrupt. The entry is found by
	// its encoding — block, state, owner — and its block rewritten.
	t.Run("directory-block-unkeyed", func(t *testing.T) {
		blocks := sim.NodeDirectory(m, 0).Blocks()
		if len(blocks) == 0 {
			t.Fatal("node 0's directory is empty")
		}
		e, _ := sim.NodeDirectory(m, 0).Probe(blocks[0])
		rec := binary.LittleEndian.AppendUint32(nil, blocks[0])
		rec = binary.LittleEndian.AppendUint64(append(rec, byte(e.State)), uint64(int64(e.Owner)))
		hdr, _ := snapshot.PeekHeader(img)
		payload := append([]byte(nil), img[44:]...)
		at := bytes.Index(payload, rec)
		if at < 0 || bytes.Index(payload[at+1:], rec) >= 0 {
			t.Fatalf("directory entry of block %#x not found once in the image", blocks[0])
		}
		binary.LittleEndian.PutUint32(payload[at:], ^uint32(0))
		_, err := sim.Restore(snapshot.Seal(payload, hdr.ConfigHash, hdr.Cycle), sim.RestoreOverrides{})
		if !errors.Is(err, snapshot.ErrCorrupt) || !strings.Contains(err.Error(), "no address reaches") {
			t.Fatalf("error %v, want %v for the block", err, snapshot.ErrCorrupt)
		}
	})

	// A retry-tracker list holds one tracker per task frame, indexed by
	// the frame pointer: an image whose list is shorter is corrupt.
	t.Run("retry-trackers-short", func(t *testing.T) {
		m := build(t, bench.QueensSource(6), snapConfig{nodes: 4}.simConfig())
		sim.EmptyRetryTrackers(m, 0)
		bad, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Restore(bad, sim.RestoreOverrides{}); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("error %v, want %v", err, snapshot.ErrCorrupt)
		}
	})

	// Truncation sweep: no cut point may panic.
	for _, n := range []int{0, 7, 8, 12, 43, 44, 45, 100, len(img) / 2} {
		if n > len(img) {
			continue
		}
		if _, err := sim.Restore(img[:n], sim.RestoreOverrides{}); err == nil {
			t.Errorf("restore of %d-byte prefix succeeded", n)
		}
	}
}

// TestSnapshotRefusesV3Image: a v3 image (one cache LRU clock, where
// v4 keeps stamps per set) is refused by its header, whatever its
// payload holds.
func TestSnapshotRefusesV3Image(t *testing.T) {
	m := build(t, bench.FibSource(8), snapConfig{nodes: 4, aw: true}.simConfig())
	if _, err := m.RunWindow(1024); err != nil {
		t.Fatal(err)
	}
	img, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(img[8:], 3)
	if _, err := sim.Restore(img, sim.RestoreOverrides{}); !errors.Is(err, snapshot.ErrVersion) {
		t.Fatalf("restore of a v3 image: %v, want %v", err, snapshot.ErrVersion)
	}
}

// TestSnapshotCrashReportIncludesCheckpoint: a run that crashes after
// SetCheckpointInfo tells the user where the last checkpoint is and how
// to resume from it (satellite: crash recovery UX).
func TestSnapshotCrashReportIncludesCheckpoint(t *testing.T) {
	cfg := snapConfig{nodes: 4, aw: true}.simConfig()
	cfg.MaxCycles = 4096 // far below completion: force a budget crash
	m := build(t, bench.QueensSource(5), cfg)
	m.SetCheckpointInfo(1024, 400_000, "april -restore ckpt/000001024.img")
	_, err := m.Run()
	if err == nil {
		t.Fatal("expected cycle-budget crash")
	}
	var ce *sim.CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("error is %T, want *sim.CrashError", err)
	}
	if !ce.Report.HasCheckpoint || ce.Report.CheckpointCycle != 1024 {
		t.Fatalf("report checkpoint: valid=%v cycle=%d", ce.Report.HasCheckpoint, ce.Report.CheckpointCycle)
	}
	text := ce.Report.Render()
	for _, want := range []string{"last checkpoint: cycle 1024", "image 400000 bytes (100000 per node)", "resume with: april -restore ckpt/000001024.img"} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
}

// TestSnapshotSabotageDeterminism: the planted invariant violation
// (Config.SabotageCycle) fires at the same cycle in a straight run and
// in a run restored from a pre-sabotage checkpoint — the property the
// divergence bisector depends on.
func TestSnapshotSabotageDeterminism(t *testing.T) {
	cfg := snapConfig{nodes: 4, aw: true}.simConfig()
	cfg.SabotageCycle = 3000
	m := build(t, bench.QueensSource(5), cfg)
	if _, err := m.RunWindow(1024); err != nil {
		t.Fatal(err)
	}
	img, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	m2, err := sim.Restore(img, sim.RestoreOverrides{Tier: sim.TierReference, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	// Advance past the sabotage cycle, then audit: the violation must
	// be present at exactly the planted cycle.
	if _, err := m2.RunWindow(3000 - 1024); err != nil {
		t.Fatal(err)
	}
	if err := m2.AuditNow(); err == nil {
		t.Fatal("audit after sabotage cycle found no violation")
	}

	// A second restore stopped one cycle short must still be clean.
	m3, err := sim.Restore(img, sim.RestoreOverrides{Tier: sim.TierReference, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m3.RunWindow(3000 - 1024 - 1); err != nil {
		t.Fatal(err)
	}
	if err := m3.AuditNow(); err != nil {
		t.Fatalf("audit one cycle before sabotage: %v", err)
	}
}

// residentPage is one resident page's contents, copied out.
type residentPage struct {
	words [mem.PageWords]isa.Word
	fe    [mem.PageFEWords]uint64
}

// memoryPages copies a memory's resident pages for comparison.
func memoryPages(m *sim.Machine) map[uint32]residentPage {
	pages := map[uint32]residentPage{}
	m.Mem.DumpResident(func(id uint32, words *[mem.PageWords]isa.Word, fe *[mem.PageFEWords]uint64) {
		pages[id] = residentPage{*words, *fe}
	})
	return pages
}

// TestSnapshotMemoryResidency: the image's one memory section carries
// each resident 4 KiB page with its full/empty bits, and restore
// reproduces residency exactly — a page that SetFE(empty) alone made
// resident comes back with zero data and its empty bit, pages this
// process touched while rebuilding the machine do not stay, and a page
// beyond a memory that ends inside its last 256 KiB group is refused.
func TestSnapshotMemoryResidency(t *testing.T) {
	cfg := snapConfig{nodes: 2, aw: true}.simConfig()
	cfg.MemoryBytes = 16<<20 + 3*4096 // not a multiple of 256 KiB
	feOnly := cfg.MemoryBytes - 4096  // the last page, in the partly covered group
	donor := func() *sim.Machine {
		m := runTo(t, build(t, bench.FibSource(8), cfg), 1024)
		if m.Mem.PageResident(feOnly) {
			t.Fatalf("page of %#x already resident", feOnly)
		}
		m.Mem.MustSetFE(feOnly+8, false)
		for _, addr := range []uint32{0, feOnly - 4096} {
			before := m.Mem.Resident()
			if w, full := m.Mem.MustLoad(addr), m.Mem.MustFE(addr); w != 0 || !full || m.Mem.Resident() != before {
				t.Fatalf("read of untouched %#x = (%#x, %v), resident %d -> %d", addr, w, full, before, m.Mem.Resident())
			}
		}
		return m
	}
	// The restored machine's image is the donor's (Diverge compares
	// them as built), and both finish alike.
	diverge(t, donor, func() *sim.Machine {
		m := donor()
		m2 := restore(t, m, sim.RestoreOverrides{})
		want, got := memoryPages(m), memoryPages(m2)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("restored memory differs: %d pages, want %d", len(got), len(want))
		}
		if m2.Mem.Resident() != m.Mem.Resident() || !m2.Mem.PageResident(feOnly) {
			t.Errorf("restored residency %d, want %d; F/E-only page resident %v",
				m2.Mem.Resident(), m.Mem.Resident(), m2.Mem.PageResident(feOnly))
		}
		if m2.Mem.MustLoad(feOnly+8) != 0 || m2.Mem.MustFE(feOnly+8) || !m2.Mem.MustFE(feOnly+12) {
			t.Error("F/E-only page did not restore as zero data with one empty bit")
		}
		return m2
	}, whole)
}

// TestSnapshotImageLoopInvariant: an image taken mid-run is the same
// bytes whether the fast or the reference loop ran the machine there,
// and restores to the same finish under the fast and reference loops.
func TestSnapshotImageLoopInvariant(t *testing.T) {
	src := bench.QueensSource(5)
	at3000 := func(tier sim.Tier) func() *sim.Machine {
		return func() *sim.Machine {
			return runTo(t, build(t, src, sim.Config{Nodes: 8, Alewife: &sim.AlewifeConfig{}, Tier: tier}), 3000)
		}
	}
	diverge(t, at3000(sim.TierCompiled), at3000(sim.TierReference), whole)
	for name, ov := range map[string]sim.RestoreOverrides{
		"fast":      {},
		"reference": {Tier: sim.TierReference},
	} {
		t.Run(name, func(t *testing.T) {
			diverge(t, at3000(sim.TierReference), func() *sim.Machine { return restore(t, at3000(sim.TierCompiled)(), ov) }, whole)
		})
	}
}

// TestSnapshotTouchGranular pins what the image and the host pay for,
// by count: the 64-node machine's memory is resident in 4 KiB pages
// (under 4 MiB where 256 KiB pages held 68 MiB), the registry reports
// it, and Snapshot allocates the image and little else — sealed in
// place, grown in bulk.
func TestSnapshotTouchGranular(t *testing.T) {
	m := queensDonor(t, 64)
	mt := m.MemoryTelemetry()
	if mt.PagesResident == 0 || mt.ResidentBytes > 4<<20 || mt.ResidentBytes != mt.PagesResident*mem.PageBytes {
		t.Errorf("memory telemetry %+v, want 0 < resident_bytes <= 4 MiB", mt)
	}
	if g := m.CounterRegistry().Snapshot()["memory"]; g["pages_resident"] != mt.PagesResident || g["resident_bytes"] != mt.ResidentBytes {
		t.Errorf("registry memory group %v, telemetry %+v", g, mt)
	}
	if _, err := m.Snapshot(); err != nil { // warm: first-use allocations are not the image's
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	img, err := m.Snapshot()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(len(img))*5/4
	t.Logf("%d pages resident; Snapshot allocated %d bytes for a %d-byte image", mt.PagesResident, alloc, len(img))
	if alloc > limit {
		t.Errorf("Snapshot allocated %d bytes for a %d-byte image, want at most %d", alloc, len(img), limit)
	}
	if len(img) > 5<<20 {
		t.Errorf("image is %d bytes, want under 5 MiB", len(img))
	}
}

// TestSnapshotHostileIdentity: an identity section asking for an
// absurd machine is refused as a corrupt image before anything is
// allocated for it — each of these, with a valid checksum, used to die
// in the allocator — and sim.New refuses the same configurations.
func TestSnapshotHostileIdentity(t *testing.T) {
	cases := map[string]func(*sim.Config){
		"torus of 2^40 nodes":     func(c *sim.Config) { c.Alewife.Geometry = network.Geometry{Dim: 4, Radix: 1 << 10} },
		"torus product overflows": func(c *sim.Config) { c.Alewife.Geometry = network.Geometry{Dim: 8, Radix: 1 << 8} },
		"torus of 2^40 dims":      func(c *sim.Config) { c.Alewife.Geometry = network.Geometry{Dim: 1 << 40, Radix: 1} },
		"idle period 2^40":        func(c *sim.Config) { c.Profile.Idle = 1 << 40 },
		"negative cost":           func(c *sim.Config) { c.Profile.Steal = -1 },
		"2^40 frames":             func(c *sim.Config) { c.Profile.Frames = 1 << 40 },
		"2^30 nodes":              func(c *sim.Config) { c.Nodes = 1 << 30 },
		"cache of no sets":        func(c *sim.Config) { c.Alewife.Cache.SizeBytes = 0 },
		"4 GiB cache":             func(c *sim.Config) { c.Alewife.Cache.SizeBytes = 1<<32 - 16 },
		"3-byte cache blocks":     func(c *sim.Config) { c.Alewife.Cache.BlockBytes = 3; c.Alewife.Cache.SizeBytes = 3 << 10 },
		"memory below the layout": func(c *sim.Config) { c.MemoryBytes = 1 << 20 },
		"memory size wraps":       func(c *sim.Config) { c.MemoryBytes = 1<<32 - 4 },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			m := build(t, bench.FibSource(8), snapConfig{nodes: 4, aw: true}.simConfig())
			mutate(&m.Cfg) // Snapshot encodes m.Cfg: a sealed image of the hostile identity
			img, err := m.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sim.Restore(img, sim.RestoreOverrides{}); !errors.Is(err, snapshot.ErrCorrupt) {
				t.Errorf("Restore: %v, want ErrCorrupt", err)
			}
			cfg := snapConfig{nodes: 4, aw: true}.simConfig()
			sim.New(cfg) // fills cfg.Alewife's defaults in place
			mutate(&cfg)
			if _, err := sim.New(cfg); err == nil {
				t.Error("sim.New accepted the configuration")
			}
		})
	}
}

// FuzzRestore: whatever the payload says, once it is sealed (so the
// checksum passes) Restore returns an error or a machine that can run
// — never a panic, never an allocation sized by a hostile field.
func FuzzRestore(f *testing.F) {
	for _, aw := range []bool{false, true} {
		cfg := snapConfig{nodes: 2, aw: aw}.simConfig()
		cfg.MemoryBytes = 16 << 20
		if aw {
			cfg.Alewife.Cache = cache.Config{SizeBytes: 1 << 10, BlockBytes: 16, Assoc: 2}
		}
		m := runTo(f, build(f, bench.FibSource(6), cfg), 1500)
		img, err := m.Snapshot()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img[44:], m.Now())
	}
	f.Fuzz(func(t *testing.T, payload []byte, cycle uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := sim.Restore(snapshot.Seal(payload, 0, cycle), sim.RestoreOverrides{})
		if err == nil {
			_, err = m.RunWindow(2000)
		}
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<30 {
			t.Errorf("restoring a %d-byte payload allocated %d bytes (error: %v)", len(payload), alloc, err)
		}
	})
}
