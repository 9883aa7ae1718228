package sim

import (
	"errors"
	"fmt"

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

// RunFor drives the machine for exactly the given number of cycles
// (threads typically loop forever; there is no termination or deadlock
// detection — an idle machine simply burns idle cycles). Like Run it
// fast-forwards across provably uneventful cycles, except under
// TierReference; the window boundary is honored exactly either way.
func (m *Machine) RunFor(cycles uint64) error {
	if !m.loaded {
		return errors.New("sim: no program loaded")
	}
	end := m.now + cycles
	if m.Cfg.Tier == TierReference {
		for m.now < end {
			for _, n := range m.Nodes {
				if n.busy > 0 {
					n.busy--
					continue
				}
				c, err := n.Proc.Step()
				if err != nil {
					return fmt.Errorf("cycle %d node %d: %w", m.now, n.Proc.ID, err)
				}
				if c > 1 {
					n.busy = c - 1
				}
			}
			if m.net != nil {
				m.net.tick()
			}
			m.now++
		}
		return nil
	}
	defer m.settleNow()
	for m.now < end {
		m.fastForwardUntil(end)
		if m.now >= end {
			break
		}
		keep, err := m.stepNodes(m.dueSteps(), m.keepBuf[:0], false)
		if err != nil {
			return err
		}
		m.setRunning(keep)
		if m.net != nil {
			m.net.tick()
		}
		m.now++
	}
	return nil
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
