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
	"april/internal/network"
	"april/internal/sim"
)

// ffSide builds src on a machine of nodes nodes on tier, ALEWIFE or
// perfect memory, traced with its timeline armed or not.
func ffSide(t *testing.T, src string, nodes int, alewife bool, tier sim.Tier, tracing bool) func() *sim.Machine {
	cfg := sim.Config{Nodes: nodes, Tier: tier}
	if alewife {
		cfg.Alewife = &sim.AlewifeConfig{}
	}
	return func() *sim.Machine {
		if !tracing {
			return build(t, src, cfg)
		}
		return build(t, src, cfg, func(m *sim.Machine) { m.EnableTracing(0); m.EnableTimeline(256) })
	}
}

// sameRows holds the timeline rows of two runs, which no image
// carries, to each other.
func sameRows(t *testing.T, fast, naive *sim.Machine) {
	t.Helper()
	if fast.Sampler() == nil {
		return
	}
	if f, n := fast.Sampler().Rows(), naive.Sampler().Rows(); !reflect.DeepEqual(f, n) {
		t.Errorf("timeline rows diverge: fast %d rows, naive %d rows", len(f), len(n))
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
						fast, naive := diverge(t, ffSide(t, src, nodes, alewife, sim.TierCompiled, tracing),
							ffSide(t, src, nodes, alewife, sim.TierReference, tracing), whole)
						sameRows(t, fast, naive)
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
			diverge(t, ffSide(t, src, nodes, true, sim.TierCompiled, false),
				ffSide(t, src, nodes, true, sim.TierReference, false), whole)
		})
	}
}
