// Package fault is the simulator's robustness subsystem: deterministic
// timing perturbation, runtime invariant checking, and crash forensics.
//
// The paper's central claim is that APRIL tolerates *unpredictable*
// latencies — remote misses and synchronization faults complete at
// arbitrary times and the processor stays correct and busy (Sections 3
// and 8). A deterministic simulator only ever exercises one timing per
// configuration, so this package supplies the adversary: a seeded Plan
// the networks consult to jitter, stall, and delay traffic, moving the
// machine onto a different (but reproducible) timing trajectory for
// every seed. Program results must be identical under any seed; only
// cycle counts may move. The Checker and Report types are the other
// half of the bargain: they verify the protocol invariants on every
// perturbed trajectory and, when the machine does wedge, explain where.
package fault

import (
	"fmt"
	"sort"
)

// Config describes a perturbation plan. The zero value perturbs
// nothing; all draws are pure functions of (Seed, site, sequence
// number), so a plan's behavior is reproducible and — crucially —
// independent of the order in which the simulator's fast and reference
// loops happen to consult it.
type Config struct {
	// Seed selects the trajectory. Two runs with equal Config are
	// bit-identical; different seeds explore different timings.
	Seed uint64

	// MaxHopJitter adds a uniform extra delay in [0, MaxHopJitter]
	// cycles to every channel transmission (torus) or message flight
	// (ideal network).
	MaxHopJitter int

	// StallEvery makes roughly one in StallEvery transmissions stall
	// its link for an extra 1..StallCycles cycles before transmitting
	// (a transient link fault; the channel retries automatically since
	// queued packets simply wait out the stall). 0 disables stalls.
	StallEvery  int
	StallCycles int

	// MaxReplyDelay adds a uniform extra delay in [0, MaxReplyDelay]
	// cycles to directory data replies (Data/DataEx grants), modelling
	// a slow memory controller.
	MaxReplyDelay int

	// StallLinks permanently stalls the listed torus channels: packets
	// queue behind them forever. This is the wedge-induction knob for
	// crash-forensics tests; it has no effect on the ideal network.
	StallLinks []int

	// WedgeAtCycle schedules a node-targeted wedge: at the given cycle
	// every torus output channel owned by WedgeNode becomes permanently
	// stalled, as if the node's router died mid-run. Unlike StallLinks
	// (stalled from cycle zero) the machine runs cleanly up to the arm
	// point, which is what checkpoint-recovery tests need: the wedge
	// lands in the middle of a run that earlier checkpoints predate.
	// 0 disables; no effect on the ideal network.
	WedgeAtCycle uint64
	WedgeNode    int
}

// Default returns the standard perturbation plan for a seed: a few
// cycles of hop jitter, occasional transient stalls, and slow
// directory replies — enough to move every protocol race off its
// deterministic trajectory without wedging anything.
func Default(seed uint64) Config {
	return Config{
		Seed:          seed,
		MaxHopJitter:  3,
		StallEvery:    50,
		StallCycles:   32,
		MaxReplyDelay: 8,
	}
}

// PermanentStall is the per-transmission penalty applied to channels
// listed in Config.StallLinks: large enough that no run completes the
// transmission, small enough that busy-counter arithmetic cannot
// overflow when the run loop advances across billions of cycles.
const PermanentStall = 1 << 40

// Plan is a compiled Config: the object the networks and controllers
// consult on the hot path. All methods are allocation-free and pure —
// the same (site, seq) pair always yields the same draw — so the fast
// and reference run loops, which reach draw sites at different host
// moments, stay bit-identical.
type Plan struct {
	cfg     Config
	stalled []int // sorted copy of cfg.StallLinks (+ armed wedge channels)
	armed   bool  // the scheduled wedge has fired
}

// NewPlan compiles a Config.
func NewPlan(cfg Config) *Plan {
	p := &Plan{cfg: cfg}
	if len(cfg.StallLinks) > 0 {
		p.stalled = append(p.stalled, cfg.StallLinks...)
		sort.Ints(p.stalled)
	}
	return p
}

// Config returns the plan's configuration.
func (p *Plan) Config() Config { return p.cfg }

// Draw streams: each perturbation site hashes under its own stream id
// so per-site sequence counters never collide.
const (
	streamHop   = 0x68_6f_70 // "hop"
	streamStall = 0x73_74_6c // "stl"
	streamMsg   = 0x6d_73_67 // "msg"
	streamReply = 0x72_70_6c // "rpl"
)

// mix is the splitmix64 finalizer over (seed, stream, site, seq),
// applied twice so every input bit reaches every output bit.
func (p *Plan) mix(stream, site, seq uint64) uint64 {
	x := p.cfg.Seed
	x = splitmix(x + stream*0x9e3779b97f4a7c15)
	x = splitmix(x + site*0xbf58476d1ce4e5b9 + seq*0x94d049bb133111eb)
	return x
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// TxPenalty returns the extra cycles the seq'th transmission on the
// given torus channel takes: hop jitter, an occasional transient
// stall, or PermanentStall for wedged links.
func (p *Plan) TxPenalty(channel int, seq uint64) int {
	if p.Stalled(channel) {
		return PermanentStall
	}
	pen := 0
	site := uint64(channel)
	if p.cfg.MaxHopJitter > 0 {
		pen += int(p.mix(streamHop, site, seq) % uint64(p.cfg.MaxHopJitter+1))
	}
	if p.cfg.StallEvery > 0 && p.cfg.StallCycles > 0 {
		r := p.mix(streamStall, site, seq)
		if r%uint64(p.cfg.StallEvery) == 0 {
			pen += 1 + int((r>>32)%uint64(p.cfg.StallCycles))
		}
	}
	return pen
}

// MsgJitter returns the extra flight cycles for the seq'th message on
// the ideal network (which has no channels to stall; StallEvery
// contributes an occasional long flight instead).
func (p *Plan) MsgJitter(seq uint64) int {
	pen := 0
	if p.cfg.MaxHopJitter > 0 {
		pen += int(p.mix(streamMsg, 0, seq) % uint64(p.cfg.MaxHopJitter+1))
	}
	if p.cfg.StallEvery > 0 && p.cfg.StallCycles > 0 {
		r := p.mix(streamStall, ^uint64(0), seq)
		if r%uint64(p.cfg.StallEvery) == 0 {
			pen += 1 + int((r>>32)%uint64(p.cfg.StallCycles))
		}
	}
	return pen
}

// ReplyDelay returns the extra cycles the seq'th directory data reply
// sent by node waits before entering the network.
func (p *Plan) ReplyDelay(node int, seq uint64) int {
	if p.cfg.MaxReplyDelay <= 0 {
		return 0
	}
	return int(p.mix(streamReply, uint64(node), seq) % uint64(p.cfg.MaxReplyDelay+1))
}

// Stalled reports whether a torus channel is permanently stalled.
func (p *Plan) Stalled(channel int) bool {
	// StallLinks is tiny (usually empty); a linear scan beats a map on
	// the transmission hot path and allocates nothing.
	for _, c := range p.stalled {
		if c == channel {
			return true
		}
		if c > channel {
			return false
		}
	}
	return false
}

// StalledLinks returns the sorted permanently-stalled channel list.
func (p *Plan) StalledLinks() []int { return p.stalled }

// WedgePending reports that the plan schedules a wedge that has not
// fired yet. The run loop polls it between execution slices and calls
// ArmWedge once the configured cycle is reached.
func (p *Plan) WedgePending() bool { return p.cfg.WedgeAtCycle > 0 && !p.armed }

// ArmWedge fires the scheduled wedge: the given channels (the wedge
// node's output channels, computed by the caller, who knows the torus
// geometry) join the permanently-stalled set. Idempotent; a no-op when
// no wedge is scheduled.
func (p *Plan) ArmWedge(channels []int) {
	if !p.WedgePending() {
		return
	}
	p.armed = true
	p.stalled = append(p.stalled, channels...)
	sort.Ints(p.stalled)
}

// String summarizes the plan for reports.
func (p *Plan) String() string {
	c := p.cfg
	s := fmt.Sprintf("seed=%#x hop-jitter<=%d stall 1/%d<=%d reply<=%d stalled-links=%v",
		c.Seed, c.MaxHopJitter, c.StallEvery, c.StallCycles, c.MaxReplyDelay, p.stalled)
	if c.WedgeAtCycle > 0 {
		state := "pending"
		if p.armed {
			state = "armed"
		}
		s += fmt.Sprintf(" wedge-node=%d@%d(%s)", c.WedgeNode, c.WedgeAtCycle, state)
	}
	return s
}
