package sim

import (
	"testing"

	"april/internal/fault"
	"april/internal/rts"
)

// The dense controller scan, kept as the oracle for the fabric's dirty
// set and outbox calendar: it visits every inbox and every controller
// on every tick, and reads the fabric's horizon off every controller's
// queues.

// denseTick advances f one cycle the way the pre-calendar fabric did.
// The dirty set and calendar are drained and discarded so they stay
// bounded; the scan itself never reads them.
func denseTick(f *netFabric) {
	f.now++
	f.net.Tick()
	f.cal.Due(f.now)
	f.gatherDirty()
	for node, ctl := range f.ctls {
		f.drainInto(node, ctl)
	}
	for _, ctl := range f.ctls {
		ctl.processRecalls()
		ctl.flushOutbox()
	}
}

// denseNextEvent is the fold of ctlNextEvent over every controller.
func denseNextEvent(f *netFabric) uint64 {
	next := f.net.NextEvent()
	for _, ctl := range f.ctls {
		next = f.ctlNextEvent(ctl, next)
	}
	return next
}

// TestNextEventMatchesDenseScan checks, before every cycle of a seeded
// 16-node ALEWIFE run with delayed directory replies, that the fabric's
// horizon from its dirty set and calendar equals the dense fold over
// every controller.
func TestNextEventMatchesDenseScan(t *testing.T) {
	faults := fault.Default(3)
	m := calMachine(t, Config{Nodes: 16, Profile: rts.APRIL, Alewife: &AlewifeConfig{}, Faults: &faults}, queens5)
	waited := 0
	for {
		got, want := m.net.nextEvent(), denseNextEvent(m.net)
		if got != want {
			t.Fatalf("cycle %d: nextEvent %d, dense scan %d", m.Now(), got, want)
		}
		if want > m.net.now+1 {
			waited++
		}
		done, err := m.RunWindow(1)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	if waited == 0 {
		t.Fatal("the fabric never waited: the run exercised no calendar")
	}
	t.Logf("%d cycles, %d with the fabric's next event in the future", m.Now(), waited)
}
