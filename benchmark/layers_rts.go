package main

import (
	"april/internal/mem"
	"april/internal/rts"
)

func newScheduler(nodes int) *rts.Scheduler {
	lay := mem.DefaultLayout(driveMemBytes)
	prof := rts.APRIL
	return rts.NewScheduler(mem.New(driveMemBytes), &prof, false, nodes,
		mem.NewArena(lay.StackBase, lay.StackEnd), mem.NewArena(lay.HeapStart, lay.End), nil)
}

// stealDrive prices one steal on a machine of `nodes` ready queues of
// which exactly one, half the machine away, holds a thread: the scan an
// idle processor pays on a sparse machine.
func stealDrive(big bool) func(e *driveEnv) (float64, error) {
	return func(e *driveEnv) (float64, error) {
		n := e.sz.driveNodes(big)
		s := newScheduler(n)
		t := s.NewThread(n / 2)
		return e.perOp(func(k int) {
			for i := 0; i < k; i++ {
				s.PushReady(t)
				sink += uint64(s.StealReady(0).ID)
			}
		}), nil
	}
}

var rtsDrives = []drive{
	{metric: "rts.push_pop_ns", fn: func(e *driveEnv) (float64, error) {
		s := newScheduler(e.sz.midNodes)
		t := s.NewThread(0)
		return e.perOp(func(n int) {
			for i := 0; i < n; i++ {
				s.PushReady(t)
				sink += uint64(s.PopReadyLocal(0).ID)
			}
		}), nil
	}},
	{metric: "rts.steal_ns_n64", fn: stealDrive(false)},
	{metric: "rts.steal_ns_n1000", fn: stealDrive(true)},
}
