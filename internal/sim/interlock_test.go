package sim

import (
	"testing"

	"april/internal/cache"
	"april/internal/isa"
	"april/internal/mult"
	"april/internal/proc"
	"april/internal/rts"
)

// The first-use interlock is read in two places: a hit reads the flag
// on the cache line, the recall paths read the controller's locked
// map. The directed case below drives the one history in which the two
// could drift apart — the locked entry outlives its line — and holds
// the clock-free hit path to the reference path through it.

// interlockRig is a two-node machine driven at the controller ports,
// the way the stress tests do, one fabric tick per step. fused selects
// how an access is attempted: the reference rig goes through Access
// only; the fused rig tries the clock-free FusedHit first and falls
// back to Access when it refuses, as the superinstruction path does.
type interlockRig struct {
	t     *testing.T
	m     *Machine
	fused bool
}

func newInterlockRig(t *testing.T, cfg Config, fused bool) *interlockRig {
	t.Helper()
	cfg.Nodes, cfg.Profile = 2, rts.APRIL
	cfg.Alewife = &AlewifeConfig{Cache: cache.Config{SizeBytes: 1 << 10, BlockBytes: 16, Assoc: 2}}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := mult.Compile("1", mult.Mode{HardwareFutures: true}, m.StaticHeap())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(prog); err != nil {
		t.Fatal(err)
	}
	return &interlockRig{t: t, m: m, fused: fused}
}

func (r *interlockRig) tick() {
	r.m.net.tick()
	r.m.now++ // Restore wants machine and fabric on one clock
}

// try attempts one plain access and reports whether it completed.
func (r *interlockRig) try(node int, addr uint32, store bool, v isa.Word) (isa.Word, bool) {
	r.t.Helper()
	ctl := r.m.Nodes[node].cache
	if r.fused {
		if prev, _, ok := ctl.FusedHit(addr, store, v); ok {
			return prev, true
		}
	}
	res, err := ctl.Access(addr, isa.MemFlavor{}, store, v)
	if err != nil {
		r.t.Fatal(err)
	}
	return res.Value, res.Outcome == proc.OK
}

// complete retries an access, one tick per attempt, until it is done.
func (r *interlockRig) complete(node int, addr uint32, store bool, v isa.Word) isa.Word {
	r.t.Helper()
	for i := 0; i < 2000; i++ {
		if prev, ok := r.try(node, addr, store, v); ok {
			return prev
		}
		r.tick()
	}
	r.t.Fatalf("node %d access to %#x never completed", node, addr)
	return 0
}

func (r *interlockRig) lockState(node int, block uint32) (flag, inMap bool) {
	c := r.m.Nodes[node].cache
	ln, ok := c.cache.Find(block)
	_, inMap = c.locked[block]
	return ok && ln.Locked(), inMap
}

// Blocks of set 1 of the 32-set cache whose home is node 1.
const (
	ilX = 0x10001
	ilY = ilX + 32
	ilZ = ilX + 64
)

// interlockPrefix runs the history up to the re-install: node 0 takes
// X exclusive and uses it; node 1 — X's home — reads it, which recalls
// node 0's copy and fills node 1's by a grant, locked; node 1 never
// uses the line, and two local misses in the same set evict it; then
// node 1 reads X again, a local miss (the directory lists it a sharer)
// that re-installs the block while the locked entry is still live.
func interlockPrefix(r *interlockRig) {
	t := r.t
	t.Helper()
	r.complete(0, ilX<<4, true, 41)
	ctl := r.m.Nodes[1].cache
	if _, done := r.try(1, ilX<<4, false, 0); done {
		t.Fatal("node 1's first read of X completed without a transaction")
	}
	for i := 0; len(ctl.pending) > 0; i++ {
		if i == 2000 {
			t.Fatal("node 1's grant never arrived")
		}
		r.tick()
	}
	if flag, inMap := r.lockState(1, ilX); !flag || !inMap {
		t.Fatalf("after the grant: flag %v, locked entry %v, want both", flag, inMap)
	}
	r.complete(1, ilY<<4, false, 0)
	r.complete(1, ilZ<<4, false, 0)
	if _, resident := ctl.cache.Probe(ilX); resident {
		t.Fatal("X survived two fills of its two-way set")
	}
	if _, inMap := r.lockState(1, ilX); !inMap {
		t.Fatal("eviction dropped the locked entry")
	}
	local := ctl.Stats.LocalMisses
	if v := r.complete(1, ilX<<4, false, 0); v != 41 {
		t.Fatalf("re-read of X = %d, want 41", v)
	}
	if ctl.Stats.LocalMisses != local+1 {
		t.Fatal("the re-install was not a local miss")
	}
	if flag, inMap := r.lockState(1, ilX); !flag || !inMap {
		t.Fatalf("after the local re-install: flag %v, locked entry %v, want both", flag, inMap)
	}
}

// interlockSuffix: node 0 writes X — an upgrade of its shared copy —
// so the home invalidates node 1, whose line is interlocked: the recall
// defers. Node 1's next read of X is the first use; a clock-free hit
// must refuse it (the release lets the recall fire next tick), the
// per-op hit releases the lock, the recall goes through and node 0's
// write completes.
func interlockSuffix(r *interlockRig) {
	t := r.t
	t.Helper()
	ctl := r.m.Nodes[1].cache
	if _, done := r.try(0, ilX<<4, true, 42); done {
		t.Fatal("node 0's write to a shared copy completed at once")
	}
	for i := 0; len(ctl.recallQ) == 0; i++ {
		if i == 2000 {
			t.Fatal("no recall was deferred at node 1")
		}
		r.tick()
	}
	if r.m.net.now >= ctl.locked[ilX] {
		t.Fatal("the interlock expired before the recall arrived: the case is not exercised")
	}
	hits := ctl.cache.Hits
	if _, _, ok := ctl.FusedHit(ilX<<4, false, 0); ok {
		t.Fatal("clock-free hit released an interlock under a deferred recall")
	}
	if ctl.cache.Hits != hits {
		t.Fatal("refused clock-free hit counted")
	}
	if v := r.complete(1, ilX<<4, false, 0); v != 41 {
		t.Fatalf("first use of X = %d, want 41", v)
	}
	if flag, inMap := r.lockState(1, ilX); flag || inMap {
		t.Fatalf("after first use: flag %v, locked entry %v, want neither", flag, inMap)
	}
	r.complete(0, ilX<<4, true, 42)
	if _, resident := ctl.cache.Probe(ilX); resident {
		t.Fatal("node 1 kept X through node 0's write")
	}
	if up := r.m.Nodes[0].cache.Stats.Upgrades; up == 0 {
		t.Fatal("node 0's write to its shared copy counted no upgrade")
	}
	for i := 0; i < 64; i++ {
		r.tick()
	}
}

func TestInterlockOutlivesEviction(t *testing.T) {
	// The reference rig at the re-install and at the end: the other
	// rigs' images (Diverge's comparison) must match them there.
	mid := newInterlockRig(t, Config{Tier: TierReference}, false)
	interlockPrefix(mid)
	end := newInterlockRig(t, Config{Tier: TierReference}, false)
	interlockPrefix(end)
	interlockSuffix(end)

	rigs := map[string]*interlockRig{
		"fused":   newInterlockRig(t, Config{}, true),
		"checked": newInterlockRig(t, Config{Check: true}, false),
	}
	for name, r := range rigs {
		interlockPrefix(r)
		if d := (&runPair{m: [2]*Machine{r.m, mid.m}}).diff(); d != "" {
			t.Errorf("%s: state differs from the reference at the re-install: %s", name, d)
		}
		// The same history across a Snapshot/Restore boundary: the image
		// carries locked, not the flag, and Restore must rebuild it.
		img, err := r.m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		m2, err := Restore(img, RestoreOverrides{Check: name == "checked"})
		if err != nil {
			t.Fatal(err)
		}
		twin := &interlockRig{t: t, m: m2, fused: r.fused}
		if flag, inMap := twin.lockState(1, ilX); !flag || !inMap {
			t.Errorf("%s: restored flag %v, locked entry %v, want both", name, flag, inMap)
		}
		for side, x := range map[string]*interlockRig{"": r, " restored": twin} {
			interlockSuffix(x)
			if d := (&runPair{m: [2]*Machine{x.m, end.m}}).diff(); d != "" {
				t.Errorf("%s%s: final state differs from the reference: %s", name, side, d)
			}
			if x.m.Mem.MustLoad(ilX<<4) != 42 {
				t.Errorf("%s%s: X = %d, want 42", name, side, x.m.Mem.MustLoad(ilX<<4))
			}
			if x.m.checker != nil {
				x.m.auditFinal()
				if err := x.m.checker.Err(); err != nil {
					t.Errorf("%s%s: %v", name, side, err)
				}
			}
		}
	}
}

// TestInterlockFlagAudit: the checker catches a flag that drifts from
// the map, in either direction.
func TestInterlockFlagAudit(t *testing.T) {
	for _, drift := range []string{"flag without entry", "entry without flag"} {
		r := newInterlockRig(t, Config{Check: true}, false)
		interlockPrefix(r)
		if err := r.m.checker.Err(); err != nil {
			t.Fatal(err)
		}
		ctl := r.m.Nodes[1].cache
		ln, _ := ctl.cache.Find(ilX)
		if drift == "flag without entry" {
			delete(ctl.locked, ilX)
		} else {
			ln.SetLocked(false)
		}
		r.m.net.checkBlock(ilX)
		found := false
		for _, v := range r.m.checker.Violations() {
			found = found || v.Name == "interlock/line-flag"
		}
		if !found {
			t.Errorf("%s: no interlock/line-flag violation among %v", drift, r.m.checker.Violations())
		}
	}
}
