package sim

import (
	"testing"

	"april/internal/fault"
	"april/internal/network"
	"april/internal/rts"
)

// The dense controller scan, kept as the oracle for the fabric's
// calendar: it visits every inbox and every controller on every tick,
// and reads the fabric's horizon off every controller's queues.

// denseTick advances f one cycle the way the pre-calendar fabric did.
// The calendar is drained and discarded so it stays bounded; the scan
// itself never reads it.
func denseTick(f *netFabric) {
	f.now++
	f.net.Tick()
	f.cal.Due(f.now)
	for node, ctl := range f.ctls {
		f.drainInto(node, ctl)
	}
	for _, ctl := range f.ctls {
		ctl.processRecalls()
		ctl.flushOutbox()
	}
}

// denseCtlNext is the cycle the dense fold names for one controller's
// queued work: an outbox entry's readyAt, and a deferred recall's
// interlock expiry while its block is locked (it waits for that
// whatever its deadline), or else its deadline. Work that is already
// due happens on the very next tick.
func denseCtlNext(f *netFabric, ctl *cacheCtl) uint64 {
	next := uint64(network.NoEvent)
	for i := range ctl.outbox {
		next = min(next, max(ctl.outbox[i].readyAt, f.now+1))
	}
	for i := range ctl.recallQ {
		pr := &ctl.recallQ[i]
		at := pr.deadline
		if exp, held := ctl.locked[pr.msg.Block]; held && f.now < exp {
			at = exp
		}
		next = min(next, max(at, f.now+1))
	}
	return next
}

// denseNextEvent is the fold of denseCtlNext over every controller.
func denseNextEvent(f *netFabric) uint64 {
	next := f.net.NextEvent()
	for _, ctl := range f.ctls {
		next = min(next, denseCtlNext(f, ctl))
	}
	return next
}

// ctlActsAt reports whether a pass of ctl at cycle at, with its state as
// it is now, would do anything: flush an outbox entry, or act on a
// deferred recall (processRecalls' rule).
func ctlActsAt(ctl *cacheCtl, at uint64) bool {
	for i := range ctl.outbox {
		if ctl.outbox[i].readyAt <= at {
			return true
		}
	}
	for _, pr := range ctl.recallQ {
		block := pr.msg.Block
		if exp, held := ctl.locked[block]; held && at < exp {
			continue
		}
		_, busy := ctl.pending[block]
		if _, cached := ctl.cache.Probe(block); busy && !cached && at < pr.deadline {
			continue
		}
		return true
	}
	return false
}

// TestNextEventMatchesDenseScan checks, before every cycle of a seeded
// 16-node ALEWIFE run with delayed directory replies, that the fabric's
// horizon is never later than the dense fold over every controller, and
// that every controller is filed no later than the fold names for it.
// A filing earlier than the fold is a stale one (its recall already
// acted) or one whose wait a grant changed: the controller has nothing
// to do there.
func TestNextEventMatchesDenseScan(t *testing.T) {
	faults := fault.Default(3)
	m := calMachine(t, Config{Nodes: 16, Profile: rts.APRIL, Alewife: &AlewifeConfig{}, Faults: &faults}, queens5)
	f := m.net
	filed := make([]uint64, len(f.ctls))
	waited, earlier := 0, 0
	for {
		got, want := f.nextEvent(), denseNextEvent(f)
		if got > want {
			t.Fatalf("cycle %d: nextEvent %d, later than the dense scan's %d", m.Now(), got, want)
		}
		if got < want {
			earlier++
		}
		for i := range filed {
			filed[i] = network.NoEvent
		}
		f.cal.Each(func(at uint64, id int) { filed[id] = min(filed[id], at) })
		for id, ctl := range f.ctls {
			fold := denseCtlNext(f, ctl)
			if filed[id] > fold {
				t.Fatalf("cycle %d: controller %d filed at %d, dense scan names %d", m.Now(), id, filed[id], fold)
			}
			if filed[id] < fold && ctlActsAt(ctl, filed[id]) {
				t.Fatalf("cycle %d: controller %d acts at %d, before the dense scan's %d", m.Now(), id, filed[id], fold)
			}
		}
		if want > f.now+1 {
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
	t.Logf("%d cycles, %d with the fabric's next event in the future, %d with it earlier than the dense scan's", m.Now(), waited, earlier)
}
