package sim

import (
	"bytes"
	"reflect"
	"testing"

	"april/internal/directory"
	"april/internal/fault"
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
// only wait, the calendar side's dirty set stays empty (a tick costs a
// bit-scan and a heap peek) and nextEvent names the next maturity.
func TestOutboxCalendarMatchesDenseScan(t *testing.T) {
	cfg := Config{Nodes: 8, Profile: rts.APRIL, Alewife: &AlewifeConfig{}}
	fast, dense := calMachine(t, cfg, "1").net, calMachine(t, cfg, "1").net
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
		if got, want := fast.net.Stats(), dense.net.Stats(); got != want {
			t.Fatalf("tick %d: network saw %+v, dense scan %+v", tick, got, want)
		}
		if len(fast.dirty) != 0 {
			t.Fatalf("tick %d: controllers %v left dirty with only waiting replies", tick, fast.dirty)
		}
		if !reflect.DeepEqual(fast.ctls[2].outbox, dense.ctls[2].outbox) {
			t.Fatalf("tick %d: outbox %v, dense scan %v", tick, fast.ctls[2].outbox, dense.ctls[2].outbox)
		}
	}
	if got := fast.net.Stats().Messages; got != uint64(len(delays)) {
		t.Fatalf("%d of %d replies entered the network", got, len(delays))
	}
	if got := fast.nextEvent(); got != network.NoEvent {
		t.Fatalf("quiescent fabric reports an event at %d", got)
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

// TestSnapshotRebuildsCalendars: the image format stores no calendar.
// Taken at a cycle where a fault-delayed reply matures more than a wheel
// away and a channel holds a packet it has not started, the image must
// be the same bytes from both run loops, and every (donor loop, restored
// loop) pairing must finish where the donors do.
func TestSnapshotRebuildsCalendars(t *testing.T) {
	faults := fault.Default(4)
	faults.MaxReplyDelay = 200
	mk := func(tier Tier) *Machine {
		return calMachine(t, Config{
			Nodes: 16, Profile: rts.APRIL, Alewife: &AlewifeConfig{}, Faults: &faults, Tier: tier,
		}, queens5)
	}
	finish := func(m *Machine) (uint64, string, []proc.Stats) {
		t.Helper()
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		var stats []proc.Stats
		for _, n := range m.Nodes {
			stats = append(stats, n.Proc.Stats)
		}
		return res.Cycles, res.Formatted, stats
	}

	donors := []*Machine{mk(TierCompiled), mk(TierReference)}
	for !waitingCalendars(donors[0]) {
		if done, err := donors[0].RunWindow(1); err != nil || done {
			t.Fatalf("no cycle with both calendars waiting (done %v, err %v)", done, err)
		}
	}
	at := donors[0].Now()
	if _, err := donors[1].RunWindow(at); err != nil {
		t.Fatal(err)
	}
	var imgs [2][]byte
	for i, d := range donors {
		img, err := d.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		imgs[i] = img
	}
	if !bytes.Equal(imgs[0], imgs[1]) {
		t.Fatalf("cycle %d: the two run loops wrote different images", at)
	}
	wantCycles, wantValue, wantStats := finish(donors[0])
	for i, d := range donors[1:] {
		if c, v, s := finish(d); c != wantCycles || v != wantValue || !reflect.DeepEqual(s, wantStats) {
			t.Fatalf("donor %d finished at %d (%s), donor 0 at %d (%s)", i+1, c, v, wantCycles, wantValue)
		}
	}
	for _, tier := range Tiers {
		twin, err := Restore(imgs[0], RestoreOverrides{Tier: tier})
		if err != nil {
			t.Fatal(err)
		}
		if !waitingCalendars(twin) {
			t.Fatalf("twin (%v) lost the waiting state", tier)
		}
		if ne, want := twin.net.nextEvent(), denseNextEvent(twin.net); ne != want {
			t.Fatalf("twin (%v): restored nextEvent %d, dense scan %d", tier, ne, want)
		}
		if c, v, s := finish(twin); c != wantCycles || v != wantValue || !reflect.DeepEqual(s, wantStats) {
			t.Fatalf("twin (%v) finished at %d (%s), donors at %d (%s)", tier, c, v, wantCycles, wantValue)
		}
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
