package sim_test

// Differential tests for the work-proportional run loop and the
// compiled tier: the same program on the same machine must produce
// byte-identical simulated results whether Run steps every cycle
// through the reference interpreter (sim.TierReference) or uses the
// work-proportional loop and superinstruction handlers, with tracing on or
// off. This is the contract that lets the fast
// paths replace the reference ones everywhere.

import (
	"fmt"
	"reflect"
	"testing"

	"april/internal/bench"
	"april/internal/mult"
	"april/internal/network"
	"april/internal/proc"
	"april/internal/rts"
	"april/internal/sim"
	"april/internal/trace"
)

type ffOutcome struct {
	cycles  uint64
	value   string
	stats   []proc.Stats   // per node, in node order
	samples []trace.Sample // timeline rows when tracing is enabled
}

type ffConfig struct {
	nodes   int
	alewife bool
	tier    sim.Tier
	tracing bool
}

func runDifferential(t *testing.T, src string, cfg ffConfig) ffOutcome {
	t.Helper()
	var aw *sim.AlewifeConfig
	if cfg.alewife {
		aw = &sim.AlewifeConfig{}
	}
	m, err := sim.New(sim.Config{Nodes: cfg.nodes, Profile: rts.APRIL, Alewife: aw, Tier: cfg.tier})
	if err != nil {
		t.Fatal(err)
	}
	var sampler *trace.Sampler
	if cfg.tracing {
		m.EnableTracing(0)
		sampler = m.EnableTimeline(256)
	}
	prog, err := mult.Compile(src, mult.Mode{HardwareFutures: true}, m.StaticHeap())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(prog); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	out := ffOutcome{cycles: res.Cycles, value: res.Formatted}
	for _, n := range m.Nodes {
		out.stats = append(out.stats, n.Proc.Stats)
	}
	if sampler != nil {
		out.samples = sampler.Rows()
	}
	return out
}

func compareOutcomes(t *testing.T, fast, naive ffOutcome) {
	t.Helper()
	if fast.cycles != naive.cycles {
		t.Errorf("cycles: fast %d != naive %d", fast.cycles, naive.cycles)
	}
	if fast.value != naive.value {
		t.Errorf("result: fast %s != naive %s", fast.value, naive.value)
	}
	for i := range fast.stats {
		if !reflect.DeepEqual(fast.stats[i], naive.stats[i]) {
			t.Errorf("node %d stats diverge:\nfast:  %+v\nnaive: %+v",
				i, fast.stats[i], naive.stats[i])
		}
	}
	if !reflect.DeepEqual(fast.samples, naive.samples) {
		t.Errorf("timeline rows diverge: fast %d rows, naive %d rows",
			len(fast.samples), len(naive.samples))
	}
}

func TestFastForwardMatchesNaiveLoop(t *testing.T) {
	programs := map[string]string{
		"fib":    bench.FibSource(12),
		"queens": bench.QueensSource(6),
	}
	for name, src := range programs {
		for _, alewife := range []bool{false, true} {
			for _, nodes := range []int{1, 4, 8, 64} {
				for _, tracing := range []bool{false, true} {
					mode := "perfect"
					if alewife {
						mode = "alewife"
					}
					tr := "plain"
					if tracing {
						tr = "traced"
					}
					t.Run(fmt.Sprintf("%s/%s/%dp/%s", name, mode, nodes, tr), func(t *testing.T) {
						fast := runDifferential(t, src, ffConfig{nodes: nodes, alewife: alewife, tracing: tracing})
						naive := runDifferential(t, src, ffConfig{nodes: nodes, alewife: alewife, tier: sim.TierReference, tracing: tracing})
						compareOutcomes(t, fast, naive)
					})
				}
			}
		}
	}
}

// TestPooledPayloadIdentity runs the fast-vs-reference comparison with
// poison-on-recycle enabled, so the bit-identity of the two loops is
// established while every recycled message is being overwritten with
// garbage: the coherence handlers must be consuming payload VALUES
// copied out of the network's pooled messages, never references into
// them. Any handler retaining a pooled message (or a pointer-typed
// payload) past its recycle point would diverge here.
func TestPooledPayloadIdentity(t *testing.T) {
	network.SetPoisonRecycle(true)
	defer network.SetPoisonRecycle(false)
	for _, nodes := range []int{4, 64} {
		t.Run(fmt.Sprintf("%dp", nodes), func(t *testing.T) {
			src := bench.QueensSource(6)
			fast := runDifferential(t, src, ffConfig{nodes: nodes, alewife: true})
			naive := runDifferential(t, src, ffConfig{nodes: nodes, alewife: true, tier: sim.TierReference})
			compareOutcomes(t, fast, naive)
		})
	}
}
