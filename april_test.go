package april_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"april"
)

func TestRunQuickstart(t *testing.T) {
	var out strings.Builder
	res, err := april.Run(`(print (+ 40 2)) (* 6 7)`, april.Options{Output: &out})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != "42" {
		t.Errorf("value = %q", res.Value)
	}
	if out.String() != "42\n" {
		t.Errorf("output = %q", out.String())
	}
	if res.Cycles == 0 || res.Instructions == 0 {
		t.Error("no cycles/instructions recorded")
	}
}

func TestRunAllMachineTypes(t *testing.T) {
	src := `
(define (fib n) (if (< n 2) n (+ (future (fib (- n 1))) (future (fib (- n 2))))))
(fib 10)`
	for _, mt := range []april.MachineType{april.APRIL, april.APRILCustom, april.Encore} {
		res, err := april.Run(src, april.Options{Processors: 2, Machine: mt})
		if err != nil {
			t.Fatalf("%s: %v", mt, err)
		}
		if res.Value != "55" {
			t.Errorf("%s: fib 10 = %s", mt, res.Value)
		}
	}
	if _, err := april.Run(src, april.Options{Machine: "pdp11"}); err == nil {
		t.Error("unknown machine type accepted")
	}
}

func TestRunLazyReportsSteals(t *testing.T) {
	src := `
(define (fib n) (if (< n 2) n (+ (future (fib (- n 1))) (future (fib (- n 2))))))
(fib 13)`
	res, err := april.Run(src, april.Options{Processors: 4, LazyFutures: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steals == 0 {
		t.Error("parallel lazy run recorded no steals")
	}
	if res.TasksCreated != 0 {
		t.Error("lazy run should not create eager tasks")
	}
}

func TestRunAlewife(t *testing.T) {
	res, err := april.Run(`(+ 1 2)`, april.Options{
		Processors: 4,
		Alewife:    &april.AlewifeOptions{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != "3" {
		t.Errorf("value = %q", res.Value)
	}
}

func TestInterpret(t *testing.T) {
	v, err := april.Interpret(`(cons 1 (cons 2 '()))`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != "(1 2)" {
		t.Errorf("interpret = %q", v)
	}
	if _, err := april.Interpret(`(unbound-thing)`, nil); err == nil {
		t.Error("interpreter accepted unbound call")
	}
}

func TestDisassemble(t *testing.T) {
	s, err := april.Disassemble(`(+ 1 2)`, april.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"__task_exit", "__main_exit", "trap", "jmpl"} {
		if !strings.Contains(s, want) {
			t.Errorf("listing missing %q", want)
		}
	}
}

func TestCompileErrorsSurface(t *testing.T) {
	cases := []string{
		`(undefined-variable)`,
		`(define (f a a) a)`,
		`(let ((x)) x)`,
		`(future)`,
		`(car 1 2)`,
	}
	for _, src := range cases {
		if _, err := april.Run(src, april.Options{}); err == nil {
			t.Errorf("program %q compiled and ran", src)
		}
	}
}

func TestModelAPI(t *testing.T) {
	p := april.DefaultModelParams()
	if p.Nodes() != 8000 {
		t.Errorf("nodes = %d", p.Nodes())
	}
	u := april.Utilization(p, 3)
	if u.Utilization < 0.74 || u.Utilization > 0.86 {
		t.Errorf("U(3) = %.3f", u.Utilization)
	}
	pts := april.Figure5(p, 4)
	if len(pts) != 5 {
		t.Errorf("figure5 points = %d", len(pts))
	}
	if s := april.FormatFigure5(pts); !strings.Contains(s, "useful") {
		t.Error("figure rendering missing header")
	}
	curves := april.SweepSwitchCost(p, []float64{4, 10}, 4)
	if len(curves[4]) != 4 {
		t.Error("sweep shape wrong")
	}
}

func TestBenchmarkSourcesCompile(t *testing.T) {
	for _, name := range []string{"fib", "factor", "queens", "speech"} {
		src := april.BenchmarkSource(name, april.TestSizes)
		if _, err := april.Run(src, april.Options{Processors: 2}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestLinearFitAPI(t *testing.T) {
	a, b, r2 := april.LinearFit([]float64{1, 2, 3}, []float64{2, 4, 6})
	if a != 0 || b != 2 || r2 < 0.999 {
		t.Errorf("fit %v %v %v", a, b, r2)
	}
}

func TestRunAssembly(t *testing.T) {
	res, err := april.RunAssembly(`
.entry main
main:   movi r8, 168       ; fixnum 42
        jmpl r0, r5+0
`, april.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != "42" {
		t.Errorf("value = %q", res.Value)
	}
	if _, err := april.RunAssembly(`bogus r1`, april.Options{}); err == nil {
		t.Error("invalid assembly accepted")
	}
}

// TestRunAssemblyCounters: a raw program's Result carries the same
// counters as a Mul-T run's. Node 0 strides loads 16 bytes apart over
// 8 KiB of memory homed across four ALEWIFE nodes, so three quarters
// of its misses are remote and each one switches contexts.
func TestRunAssemblyCounters(t *testing.T) {
	var counters bytes.Buffer
	res, err := april.RunAssembly(`
.entry main
main:   movi r9, 0x100000
        movi r12, 2048       ; fixnum 512: one load per 16-byte block
loop:   ldnt r11, [r9+0]
        rawadd r9, r9, 16
        subcc r12, r12, 4
        bg loop
        movi r8, 0
        jmpl r0, r5+0
`, april.Options{Processors: 4, Alewife: &april.AlewifeOptions{}, Trace: &april.TraceOptions{CountersOut: &counters}})
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]map[string]uint64
	if err := json.Unmarshal(counters.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	var switches, remote uint64
	for i := 0; i < 4; i++ {
		switches += snap[fmt.Sprintf("node%d.proc", i)]["switches"]
		remote += snap[fmt.Sprintf("node%d.memory", i)]["remote_misses"]
	}
	if remote == 0 {
		t.Fatal("the program missed remotely nowhere")
	}
	if res.ContextSwitches != switches || res.ContextSwitches == 0 {
		t.Errorf("ContextSwitches = %d, registry switches %d", res.ContextSwitches, switches)
	}
	if res.CacheMissTraps == 0 {
		t.Errorf("CacheMissTraps = 0 with %d remote misses", remote)
	}
	if s := snap["scheduler"]; res.TouchesResolved != s["touches_resolved"] || res.TasksCreated != s["tasks_created"] {
		t.Errorf("Result touches %d, tasks %d; registry %v", res.TouchesResolved, res.TasksCreated, s)
	}
}

func TestAssembleCompiledListing(t *testing.T) {
	// The disassembly of a compiled program must assemble back.
	listing, err := april.Disassemble(`(define (f x) (* x x)) (f 12)`, april.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := april.Assemble(listing)
	if err != nil {
		t.Fatalf("listing did not assemble: %v\n%s", err, listing)
	}
	if len(prog.Code) == 0 || prog.Symbols["f"] == 0 {
		t.Error("assembled listing lost code or symbols")
	}
}
