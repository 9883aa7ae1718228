package obs

import (
	"bytes"
	"strings"
	"testing"
)

// TestObsPrometheusExposition renders a miniature registry snapshot
// and checks the full output byte-for-byte: family naming, labeled vs
// unlabeled series, counter vs gauge typing, and deterministic
// ordering (families sorted by name, series by numeric label value —
// node 2 before node 10, which a string sort would invert).
func TestObsPrometheusExposition(t *testing.T) {
	snap := map[string]map[string]uint64{
		"scheduler":    {"steals": 7},
		"node2.proc":   {"instructions": 22},
		"node10.proc":  {"instructions": 1010},
		"node0.memory": {"cache_hits": 40, "outstanding_remote": 2},
		"node1.memory": {"cache_hits": 41, "outstanding_remote": 0},
		"network":      {"in_flight": 3, "messages": 9},
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, snap); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE april_memory_cache_hits counter
april_memory_cache_hits{node="0"} 40
april_memory_cache_hits{node="1"} 41
# TYPE april_memory_outstanding_remote gauge
april_memory_outstanding_remote{node="0"} 2
april_memory_outstanding_remote{node="1"} 0
# TYPE april_network_in_flight gauge
april_network_in_flight 3
# TYPE april_network_messages counter
april_network_messages 9
# TYPE april_proc_instructions counter
april_proc_instructions{node="2"} 22
april_proc_instructions{node="10"} 1010
# TYPE april_scheduler_steals counter
april_scheduler_steals 7
`
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestObsPrometheusDeterministic re-renders the same snapshot many
// times; Go map iteration order must never leak into the output.
func TestObsPrometheusDeterministic(t *testing.T) {
	snap := map[string]map[string]uint64{}
	for _, g := range []string{"node0.proc", "node1.proc", "node2.proc", "node3.proc", "machine"} {
		snap[g] = map[string]uint64{"a": 1, "b": 2, "c": 3, "d": 4}
	}
	var first string
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := WritePrometheus(&buf, snap); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = buf.String()
		} else if buf.String() != first {
			t.Fatalf("iteration %d differs from first render", i)
		}
	}
}

// TestObsPrometheusLabelEscaping covers the text-format escapes for
// label values (backslash, quote, newline) and metric-name
// sanitization of characters outside [a-zA-Z0-9_].
func TestObsPrometheusLabelEscaping(t *testing.T) {
	cases := []struct{ in, want string }{
		{`plain`, `plain`},
		{`back\slash`, `back\\slash`},
		{`qu"ote`, `qu\"ote`},
		{"new\nline", `new\nline`},
		{"all\\\"\n", `all\\\"\n`},
	}
	for _, c := range cases {
		if got := escapeLabel(c.in); got != c.want {
			t.Errorf("escapeLabel(%q) = %q, want %q", c.in, got, c.want)
		}
	}

	if got := sanitizeMetric("cache-hits.total"); got != "cache_hits_total" {
		t.Errorf("sanitizeMetric: got %q", got)
	}
	if got := sanitizeMetric("9lives"); got != "_9lives" {
		t.Errorf("sanitizeMetric leading digit: got %q", got)
	}

	// A group that doesn't match the <kind><index>.<subsystem> shape
	// must not invent labels; its dot sanitizes into the family name.
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, map[string]map[string]uint64{
		"odd.group": {"k": 1},
	}); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE april_odd_group_k counter\napril_odd_group_k 1\n"
	if buf.String() != want {
		t.Errorf("odd group: got %q, want %q", buf.String(), want)
	}
}

// TestObsPrometheusGaugeTyping spot-checks the gauge key set against
// the counter default.
func TestObsPrometheusGaugeTyping(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, map[string]map[string]uint64{
		"node0.memory": {"outstanding_remote": 1, "cache_hits": 2},
		"machine":      {"threads": 3, "cycles": 4},
	}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE april_memory_outstanding_remote gauge",
		"# TYPE april_memory_cache_hits counter",
		"# TYPE april_machine_threads gauge",
		"# TYPE april_machine_cycles counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}
