package sim

import (
	"april/internal/core"
	"april/internal/isa"
	"april/internal/rts"
)

// LoadRaw installs a hand-built program (no Mul-T runtime stubs, no
// main thread). Threads are then created with SpawnRaw and the machine
// driven with RunFor — the configuration used by the synthetic
// utilization workloads of experiment E6. The program runs on the
// configured tier, as a loaded one does.
func (m *Machine) LoadRaw(prog *isa.Program) {
	m.install(prog)
	m.loaded = true
}

// SpawnRaw creates a thread with explicit initial registers on the
// given node's ready queue.
func (m *Machine) SpawnRaw(node int, pc uint32, regs map[uint8]isa.Word) *rts.Thread {
	t := m.Sched.NewThread(node)
	t.PC = pc
	t.NPC = pc + 1
	if m.Cfg.Profile.HardwareFutures {
		t.PSR = core.PSRFutureTrap
	}
	for r, w := range regs {
		t.Regs[r] = w
	}
	m.Sched.PushReady(t)
	return t
}

// RunFor drives the machine for the given number of cycles through
// the loop Run and RunWindow run: sampler rows, the checkers,
// scheduled state events and the watchdogs all act as in any run. It
// stops early, without an error, when the main thread exits (a raw
// machine has none), and with one at MaxCycles or when the deadlock
// watchdog fires — no instruction retired for a deadlock window, as on
// a raw machine whose nodes all sit idle.
func (m *Machine) RunFor(cycles uint64) error {
	_, err := m.RunWindow(cycles)
	return err
}

// MemSystemStats sums the cache controllers' counters across nodes
// (ALEWIFE mode only; zero otherwise).
func (m *Machine) MemSystemStats() CtlStats {
	var out CtlStats
	for _, n := range m.Nodes {
		if c := n.cache; c != nil {
			out.LocalMisses += c.Stats.LocalMisses
			out.RemoteMisses += c.Stats.RemoteMisses
			out.RemoteLatency += c.Stats.RemoteLatency
			out.Upgrades += c.Stats.Upgrades
		}
	}
	return out
}
