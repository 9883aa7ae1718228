package sim

// Hooks for the tests in package sim_test: the compiled tier's two
// tuning values, which machines outside tests leave at zero. Apply
// one to a machine after New and before Load.

// Threshold makes Load translate a block once its entry PC has
// executed n times (1 = on first entry).
func Threshold(n int) func(*Machine) { return func(m *Machine) { m.threshold = n } }

// WindowCap caps epoch windows at k cycles (1 = no window opens).
func WindowCap(k uint64) func(*Machine) { return func(m *Machine) { m.windowCap = k } }
