package bench

import (
	"testing"

	"april/internal/mult"
	"april/internal/sim"
)

// TestBenchmarkProgramsCorrect cross-checks each benchmark program at
// test sizes: interpreter result == compiled result in every Table 3
// system configuration.
func TestBenchmarkProgramsCorrect(t *testing.T) {
	want := map[string]string{
		"fib":    "144",
		"factor": "",  // pinned by the interpreter below
		"queens": "4", // 6-queens has 4 solutions
		"speech": "",
	}
	for _, name := range Names {
		src := TestSizes.Source(name)
		iv, err := mult.NewInterp(nil, 0).RunSource(src)
		if err != nil {
			t.Fatalf("%s: interpreter: %v", name, err)
		}
		ref := mult.FormatValue(iv)
		if w := want[name]; w != "" && ref != w {
			t.Errorf("%s: interpreter says %s, want %s", name, ref, w)
		}
		for _, su := range setups() {
			// Sequential flavors.
			for _, mode := range []mult.Mode{
				{HardwareFutures: true, Sequential: true},
				{HardwareFutures: su.mode.HardwareFutures, Sequential: true},
			} {
				out, err := RunOnce(sim.Config{Nodes: 1, Profile: su.prof}, src, mode)
				if err != nil {
					t.Fatalf("%s/%s seq: %v", name, su.sys, err)
				}
				if out.Result != ref {
					t.Errorf("%s/%s seq: got %s, want %s", name, su.sys, out.Result, ref)
				}
			}
			// Parallel at a couple of machine sizes.
			for _, p := range []int{1, 4} {
				out, err := RunOnce(sim.Config{Nodes: p, Profile: su.prof, Lazy: su.lazy}, src, su.mode)
				if err != nil {
					t.Fatalf("%s/%s %dp: %v", name, su.sys, p, err)
				}
				if out.Result != ref {
					t.Errorf("%s/%s %dp: got %s, want %s", name, su.sys, p, out.Result, ref)
				}
			}
		}
	}
}

// TestGridTiersAgree holds every cell of the test-size Table 3 grid
// on the compiled tier to the same cell on the reference tier through
// the tier oracle, so a mismatch names its first differing cycle and
// field rather than a differing ratio.
func TestGridTiersAgree(t *testing.T) {
	cfg := DefaultTable3Config()
	cfg.Sizes = TestSizes
	specs, _ := grid(&cfg)
	if len(specs) != 80 {
		t.Fatalf("grid has %d cells, want 80", len(specs))
	}
	for _, s := range specs {
		side := func(tier sim.Tier) func() (*sim.Machine, error) {
			return func() (*sim.Machine, error) { return build(s.config(tier), s.src, s.mode) }
		}
		if err := sim.Diverge(side(sim.TierCompiled), side(sim.TierReference), 1000); err != nil {
			t.Errorf("%s: %v", s.label, err)
		}
	}
}

// TestTable3SmallShape runs the full harness at test sizes and checks
// the paper's qualitative claims hold:
//   - Encore Mul-T seq overhead is well above APRIL's (which is ~1.0);
//   - eager futures cost far more than lazy on fine-grain fib;
//   - parallel runs speed up with processors.
func TestTable3SmallShape(t *testing.T) {
	cfg := Table3Config{
		Sizes:       TestSizes,
		AprilProcs:  []int{1, 4},
		EncoreProcs: []int{1},
	}
	rows, err := Table3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]Row{}
	for _, r := range rows {
		byKey[r.Program+"/"+string(r.System)] = r
	}

	for _, name := range Names {
		enc := byKey[name+"/Encore"]
		apr := byKey[name+"/APRIL"]
		lazy := byKey[name+"/Apr-lazy"]

		if apr.MulTSeq > 1.01 {
			t.Errorf("%s: APRIL Mul-T seq overhead %.3f, want ~1.0 (hardware detection is free)", name, apr.MulTSeq)
		}
		if enc.MulTSeq < 1.2 {
			t.Errorf("%s: Encore Mul-T seq overhead %.3f, want well above 1 (software checks)", name, enc.MulTSeq)
		}
		if lazy.Par[1] >= apr.Par[1] {
			t.Errorf("%s: lazy 1p %.2f should beat eager 1p %.2f", name, lazy.Par[1], apr.Par[1])
		}
		if apr.Par[4] >= apr.Par[1] {
			t.Errorf("%s: APRIL does not speed up: 1p %.2f -> 4p %.2f", name, apr.Par[1], apr.Par[4])
		}
		if lazy.Par[4] >= lazy.Par[1] {
			t.Errorf("%s: lazy does not speed up: 1p %.2f -> 4p %.2f", name, lazy.Par[1], lazy.Par[4])
		}
	}

	// fib specifically: eager overhead should dwarf lazy overhead
	// (paper: 14x vs 1.5x).
	fibE := byKey["fib/APRIL"].Par[1]
	fibL := byKey["fib/Apr-lazy"].Par[1]
	if fibE < 3*fibL {
		t.Errorf("fib: eager %.2f vs lazy %.2f — eager should be several times worse", fibE, fibL)
	}
	t.Logf("\n%s", FormatTable(rows, []int{1, 4}))
}
