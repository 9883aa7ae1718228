package sim

import (
	"april/internal/cache"
	"april/internal/directory"
	"april/internal/network"
	"april/internal/rts"
)

// Hooks for the tests in package sim_test: the compiled tier's two
// tuning values, which machines outside tests leave at zero (apply one
// to a machine after New and before Load), a node's cache and
// directory, and the image tests' probe and corruption.

// Threshold makes Load translate a block once its entry PC has
// executed n times (1 = on first entry).
func Threshold(n int) func(*Machine) { return func(m *Machine) { m.threshold = n } }

// WindowCap caps epoch windows at k cycles (1 = no window opens).
func WindowCap(k uint64) func(*Machine) { return func(m *Machine) { m.windowCap = k } }

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
