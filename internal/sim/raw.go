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

// MemStats aggregates the memory-system counters across nodes
// (ALEWIFE mode only; zero otherwise).
type MemStats struct {
	CacheHits     uint64
	CacheMisses   uint64
	LocalMisses   uint64
	RemoteMisses  uint64
	RemoteLatency uint64 // summed request->data cycles
	Invalidations uint64
	NetMessages   uint64
	NetAvgLatency float64
}

// AvgRemoteLatency is the mean remote miss service time.
func (s MemStats) AvgRemoteLatency() float64 {
	if s.RemoteMisses == 0 {
		return 0
	}
	return float64(s.RemoteLatency) / float64(s.RemoteMisses)
}

// MemSystemStats collects the ALEWIFE memory statistics.
func (m *Machine) MemSystemStats() MemStats {
	var out MemStats
	for _, n := range m.Nodes {
		if n.cache == nil {
			continue
		}
		out.CacheHits += n.cache.cache.Hits
		out.CacheMisses += n.cache.cache.Misses
		out.LocalMisses += n.cache.Stats.LocalMisses
		out.RemoteMisses += n.cache.Stats.RemoteMisses
		out.RemoteLatency += n.cache.Stats.RemoteLatency
		out.Invalidations += n.cache.cache.Invalidations
	}
	if m.net != nil {
		ns := m.net.net.Stats()
		out.NetMessages = ns.Messages
		out.NetAvgLatency = ns.AvgLatency()
	}
	return out
}
