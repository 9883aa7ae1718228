package sim

import (
	"slices"
	"testing"

	"april/internal/directory"
	"april/internal/fault"
	"april/internal/isa"
	"april/internal/mult"
	"april/internal/network"
	"april/internal/proc"
	"april/internal/rts"
)

// Tests of the fabric's two calendars from the inside: the controller
// outbox calendar against the dense controller scan (dense_test.go) on
// directed delays, and the one state a snapshot has to rebuild both
// calendars from their far ends.

func calMachine(t testing.TB, cfg Config, src string) *Machine {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := mult.Compile(src, mult.Mode{HardwareFutures: true}, m.StaticHeap())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(prog); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestOutboxCalendarMatchesDenseScan sends replies with delays on both
// sides of the calendar's wheel from a controller of an otherwise idle
// fabric, next to a fabric that scans every controller every tick. Each
// reply must enter the network at the same tick on both; while replies
// only wait, no controller on the calendar side is filed for the next
// tick (a tick costs a bit-scan and a heap peek) and nextEvent names the
// next maturity.
func TestOutboxCalendarMatchesDenseScan(t *testing.T) {
	cfg := Config{Nodes: 8, Profile: rts.APRIL, Alewife: &AlewifeConfig{}}
	fm, dm := calMachine(t, cfg, "1"), calMachine(t, cfg, "1")
	fast, dense, pair := fm.net, dm.net, &runPair{m: [2]*Machine{fm, dm}}
	delays := []int{10, 0, 63, 64, 65, 10, 300, 1}
	var due []uint64
	for _, f := range []*netFabric{fast, dense} {
		for i, d := range delays {
			f.ctls[2].send(5, directory.Msg{Kind: directory.InvAck, Block: uint32(i)}, d)
		}
	}
	for _, d := range delays {
		due = append(due, uint64(max(d, 1))) // a delay-0 send leaves on the next tick
	}
	for tick := uint64(1); tick <= 310; tick++ {
		next := uint64(network.NoEvent)
		for _, at := range due {
			if at >= tick {
				next = min(next, at)
			}
		}
		if got := fast.nextEvent(); got > next {
			t.Fatalf("before tick %d: nextEvent %d, but a reply matures at %d", tick, got, next)
		}
		fast.tick()
		denseTick(dense)
		if d := pair.diff(); d != "" {
			t.Fatalf("tick %d: calendar and dense scan differ: %s", tick, d)
		}
		if next := fast.cal.Next(fast.now); next == fast.now+1 && !slices.Contains(due, next) {
			t.Fatalf("tick %d: a controller is filed for the next tick with only waiting replies", tick)
		}
	}
	if got := fast.net.Stats().Messages; got != uint64(len(delays)) {
		t.Fatalf("%d of %d replies entered the network", got, len(delays))
	}
	if got := fast.nextEvent(); got != network.NoEvent {
		t.Fatalf("quiescent fabric reports an event at %d", got)
	}
}

// TestDeferredRecallsMatchDenseScan drives a recall through each way
// its wait ends, on a calendar fabric next to a fabric that scans every
// controller every tick: its deadline (an awaited grant that never
// comes), its interlock's expiry, a first-use hit that releases the
// interlock, the awaited grant arriving (on a shortened interlock, so
// its expiry comes before the deadline the recall was filed at), and a
// stale grant dropped. Each scenario has its own node and block; the
// home, node 0, sends the grants and recalls through the torus. Both
// fabrics must hand every InvAck and FetchAck to the network at the
// same tick, the one the scenario names, and hold the same image (the
// recallQ, interlocks, pending misses and cache lines among it) at
// every tick.
func TestDeferredRecallsMatchDenseScan(t *testing.T) {
	cfg := Config{Nodes: 8, Profile: rts.APRIL, Alewife: &AlewifeConfig{}}
	fm, dm := calMachine(t, cfg, "1"), calMachine(t, cfg, "1")
	fast, dense, pair := fm.net, dm.net, &runPair{m: [2]*Machine{fm, dm}}
	// The ticks a scenario reaches, from the dense side: its recall
	// deferred, its grant handled, and its interlock's expiry.
	type seen struct{ deferred, granted, exp uint64 }
	paths := []struct {
		name              string
		node              int
		recall            directory.Msg
		recallAt, grantAt uint64 // the home sends them just before these ticks (grant 0: none)
		hitAt             uint64 // a first-use load runs just before this tick (0: none)
		poisoned          bool   // a recall crossed the grant before this one
		lockWindow        uint64 // 0: the profile's
		acts              func(s seen) uint64
	}{
		{name: "deadline", node: 1, recall: directory.Msg{Kind: directory.Inv}, recallAt: 1,
			acts: func(s seen) uint64 { return s.deferred + recallWait }},
		{name: "interlock-expiry", node: 2, recall: directory.Msg{Kind: directory.Fetch}, recallAt: 15, grantAt: 1,
			acts: func(s seen) uint64 { return s.exp }},
		{name: "first-use-hit", node: 3, recall: directory.Msg{Kind: directory.Inv}, recallAt: 15, grantAt: 1, hitAt: 40,
			acts: func(seen) uint64 { return 40 }},
		{name: "grant", node: 4, recall: directory.Msg{Kind: directory.Fetch, Write: true}, recallAt: 1, grantAt: 20, lockWindow: 40,
			acts: func(s seen) uint64 { return s.exp }},
		{name: "stale-grant", node: 5, recall: directory.Msg{Kind: directory.Inv}, recallAt: 1, grantAt: 20, poisoned: true,
			acts: func(s seen) uint64 { return s.granted }},
	}
	block := func(node int) uint32 { return uint32(0x100 + node) }
	for _, f := range []*netFabric{fast, dense} {
		for _, p := range paths {
			c := f.ctls[p.node]
			c.pending[block(p.node)] = missState{poisoned: p.poisoned}
			if p.lockWindow != 0 {
				c.lockWindow = p.lockWindow
			}
		}
	}
	seens := make([]seen, len(paths))
	acted := [2][]uint64{make([]uint64, len(paths)), make([]uint64, len(paths))}
	for tick := uint64(1); tick <= 1000; tick++ {
		for _, f := range []*netFabric{fast, dense} {
			for _, p := range paths {
				b := block(p.node)
				if tick == p.recallAt {
					msg := p.recall
					msg.Block, msg.Requester = b, 0
					f.ctls[0].send(p.node, msg, 0)
				}
				if tick == p.grantAt {
					f.ctls[0].send(p.node, directory.Msg{Kind: directory.Data, Block: b}, 0)
				}
				if tick == p.hitAt {
					c := f.ctls[p.node]
					if res, err := c.Access(b<<c.blockShift, isa.MemFlavor{}, false, 0); err != nil || res.Outcome != proc.OK {
						t.Fatalf("%s: first-use load at tick %d: %+v, %v", p.name, tick, res, err)
					}
				}
			}
		}
		fast.tick()
		denseTick(dense)
		if d := pair.diff(); d != "" {
			t.Fatalf("tick %d: calendar and dense scan differ: %s", tick, d)
		}
		for i, p := range paths {
			b := block(p.node)
			fc, dc := fast.ctls[p.node], dense.ctls[p.node]
			s := &seens[i]
			if len(dc.recallQ) > 0 && s.deferred == 0 {
				s.deferred = tick
			}
			if _, busy := dc.pending[b]; !busy && s.granted == 0 && s.deferred != 0 {
				s.granted = tick
			}
			if exp, held := dc.locked[b]; held {
				s.exp = exp
			}
			for side, c := range []*cacheCtl{fc, dc} {
				if acted[side][i] == 0 && s.deferred != 0 && len(c.recallQ) == 0 {
					acted[side][i] = tick
				}
			}
		}
	}
	for i, p := range paths {
		if acted[0][i] == 0 || acted[0][i] != acted[1][i] {
			t.Errorf("%s: recall acted at tick %d, dense scan %d", p.name, acted[0][i], acted[1][i])
		}
		if want := p.acts(seens[i]); acted[1][i] != want {
			t.Errorf("%s: recall deferred at tick %d acted at %d, want %d (%+v)", p.name, seens[i].deferred, acted[1][i], want, seens[i])
		}
		t.Logf("%s: deferred at tick %d, acted at %d", p.name, seens[i].deferred, acted[0][i])
	}
}

// waitingCalendars reports whether the machine is at the cycle the
// snapshot case wants: an outbox entry maturing beyond the calendar's
// wheel, and a torus channel with a packet queued but not started.
func waitingCalendars(m *Machine) bool {
	far := false
	for _, c := range m.net.ctls {
		for _, om := range c.outbox {
			far = far || om.readyAt > m.net.now+64
		}
	}
	if !far {
		return false
	}
	img := m.net.net.(*network.Torus).DumpImage()
	for i, q := range img.Queues {
		if len(q) > 0 && img.Busy[i] == 0 {
			return true
		}
	}
	return false
}

// waitingRecall reports whether a controller holds a deferred recall
// that cannot act on the next tick, so its calendar entry lies ahead.
func waitingRecall(m *Machine) bool {
	for _, c := range m.net.ctls {
		if len(c.recallQ) > 0 && !ctlActsAt(c, m.net.now+1) {
			return true
		}
	}
	return false
}

// TestSnapshotRebuildsCalendars: the image format stores no calendar.
// Taken at a cycle where a fault-delayed reply matures more than a wheel
// away and a channel holds a packet it has not started, or where a
// recall waits in a controller's recallQ, the image must be the same
// bytes from both run loops, and every (donor loop, restored loop)
// pairing must finish where the donors do.
func TestSnapshotRebuildsCalendars(t *testing.T) {
	faults := fault.Default(4)
	faults.MaxReplyDelay = 200
	mk := func(tier Tier) *Machine {
		return calMachine(t, Config{
			Nodes: 16, Profile: rts.APRIL, Alewife: &AlewifeConfig{}, Faults: &faults, Tier: tier,
		}, queens5)
	}
	for _, cut := range []struct {
		name    string
		waiting func(*Machine) bool
	}{{"reply-and-packet", waitingCalendars}, {"recall", waitingRecall}} {
		t.Run(cut.name, func(t *testing.T) {
			m := mk(TierCompiled)
			for !cut.waiting(m) {
				if done, err := m.RunWindow(1); err != nil || done {
					t.Fatalf("no cycle with the calendars waiting (done %v, err %v)", done, err)
				}
			}
			donor := func(tier Tier) func() (*Machine, error) {
				return func() (*Machine, error) {
					d := mk(tier)
					_, err := d.RunWindow(m.Now())
					return d, err
				}
			}
			// Both run loops write the donor image and finish alike.
			if err := Diverge(donor(TierCompiled), donor(TierReference), ^uint64(0)); err != nil {
				t.Fatal(err)
			}
			img, err := m.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			for _, tier := range Tiers {
				twin := func() (*Machine, error) {
					twin, err := Restore(img, RestoreOverrides{Tier: tier})
					if err != nil {
						return nil, err
					}
					if !cut.waiting(twin) {
						t.Fatalf("twin (%v) lost the waiting state", tier)
					}
					if ne, want := twin.net.nextEvent(), denseNextEvent(twin.net); ne != want {
						t.Fatalf("twin (%v): restored nextEvent %d, dense scan %d", tier, ne, want)
					}
					return twin, nil
				}
				if err := Diverge(twin, donor(TierCompiled), ^uint64(0)); err != nil {
					t.Fatalf("twin (%v): %v", tier, err)
				}
			}
		})
	}
}

// BenchmarkCtlDelayedReply is the controller-outbox row: one data reply
// from send, through the MemLatency ticks it waits in the outbox of an
// otherwise idle 64-node fabric, to the tick that hands it to the
// network.
func BenchmarkCtlDelayedReply(b *testing.B) {
	m := calMachine(b, Config{Nodes: 64, Profile: rts.APRIL, Alewife: &AlewifeConfig{}}, "1")
	f := m.net
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := i % 64
		f.ctls[src].send((src+1)%64, directory.Msg{Kind: directory.Data, Block: 1}, f.cfg.MemLatency)
		for sent := f.net.Stats().Messages; f.net.Stats().Messages == sent; {
			f.tick()
		}
	}
}

// queens5 is bench.QueensSource(5); package bench imports this one.
const queens5 = `
(define (safe? row dist placed)
  (cond ((null? placed) #t)
        ((= (car placed) row) #f)
        ((= (abs (- (car placed) row)) dist) #f)
        (else (safe? row (+ dist 1) (cdr placed)))))
(define (try-row placed len row)
  (cond ((> row 5) 0)
        ((safe? row 1 placed)
         (+ (future (extend (cons row placed) (+ len 1)))
            (try-row placed len (+ row 1))))
        (else (try-row placed len (+ row 1)))))
(define (extend placed len)
  (if (= len 5) 1 (try-row placed len 1)))
(extend '() 0)
`
