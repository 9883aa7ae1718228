package sim

import "april/internal/cache"

// Hooks for the tests in package sim_test: the compiled tier's two
// tuning values, which machines outside tests leave at zero (apply one
// to a machine after New and before Load), and a node's cache.

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
