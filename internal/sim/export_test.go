package sim

import (
	"april/internal/cache"
	"april/internal/directory"
	"april/internal/network"
	"april/internal/rts"
)

// Hooks for the tests in package sim_test: the lane cap, which
// machines outside tests leave at zero (apply it to a machine after
// New and before Load), a node's cache and
// directory, and the image tests' probe and corruption.

// LaneCap caps epoch lanes at k-1 ops (1 = no lane starts).
func LaneCap(k uint64) func(*Machine) { return func(m *Machine) { m.laneCap = k } }

// NodeCache is node's cache (nil on perfect memory).
func NodeCache(m *Machine, node int) *cache.Cache {
	if c := m.Nodes[node].cache; c != nil {
		return c.cache
	}
	return nil
}

// NodeDirectory is node's directory (nil on perfect memory).
func NodeDirectory(m *Machine, node int) *directory.Directory {
	if c := m.Nodes[node].cache; c != nil {
		return c.dir
	}
	return nil
}

// ImageCoverage counts, in m, the entries of the image's
// variable-length records: the controller tables, packets in torus
// channels, blocked-waiter lists and nodes with a retry-tracker list.
func ImageCoverage(m *Machine) map[string]int {
	c := map[string]int{}
	if m.net != nil {
		for _, ctl := range m.net.ctls {
			c["pending"] += len(ctl.pending)
			c["homeTx"] += len(ctl.homeTx)
			for _, tx := range ctl.homeTx {
				c["homeTx queued"] += len(tx.queued)
			}
			c["outbox"] += len(ctl.outbox)
			c["recallQ"] += len(ctl.recallQ)
			c["locked"] += len(ctl.locked)
		}
		if t, ok := m.net.net.(*network.Torus); ok {
			for _, q := range t.DumpImage().Queues {
				c["torus packets"] += len(q)
			}
		}
	}
	c["waiter lists"] = len(m.Sched.DumpState().Waiters)
	for _, n := range m.Nodes {
		if n.RT.DumpStuck() != nil {
			c["retry trackers"]++
		}
	}
	return c
}

// EmptyRetryTrackers gives node an empty retry-tracker list, one no
// run writes (a run's list has a tracker per task frame).
func EmptyRetryTrackers(m *Machine, node int) {
	m.Nodes[node].RT.RestoreStuck(&[]rts.StuckImage{})
}

// Defuse keeps m's sabotage (Config.SabotageCycle) from firing. The
// flag is host state, so m's image stays its armed twin's until the
// twin's sabotage fires.
func Defuse(m *Machine) { m.sabotaged = true }
