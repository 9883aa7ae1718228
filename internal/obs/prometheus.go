// Package obs is the run observatory: a live introspection surface
// over a running (or finished) machine. It converts the simulator's
// existing observability primitives — the counter registry
// (trace.Registry), the timeline sampler (trace.Sampler), and the
// Chrome-trace exporter — into HTTP endpoints (server.go), Prometheus
// text exposition (this file), and Server-Sent Events (sse.go).
//
// Everything here is strictly read-only over snapshots taken while the
// machine is quiescent; nothing in this package can perturb simulated
// results (the differential matrix in the repo root holds it to that).
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// gaugeKeys lists registry counter names that expose instantaneous
// state rather than monotonic totals: they may go down, so Prometheus
// must treat them as gauges. Every other key is a counter.
var gaugeKeys = map[string]bool{
	"in_flight":           true, // network messages currently in flight
	"outstanding_remote":  true, // cache controller: pending remote ops
	"pending_home_tx":     true, // cache controller: open home transactions
	"deferred_recalls":    true, // cache controller: queued recalls
	"outstanding_flushes": true, // cache controller: unacked flushes
	"threads":             true, // scheduler: live thread count
	"max_latency":         true, // network: high-water mark, not a sum
	"pages_resident":      true, // memory: 4 KiB demand pages resident
	"resident_bytes":      true, // memory: what those pages cost the host
}

// promRow is one exposition line: an optional single label pair plus
// the value.
type promRow struct {
	labelName  string
	labelValue string
	order      int // numeric sort key for numeric label values
	value      uint64
}

// promFamily collects every row of one metric family.
type promFamily struct {
	name string
	typ  string // "counter" or "gauge"
	rows []promRow
}

// splitGroup decomposes a registry group name into a metric-family
// component and an optional label. Per-instance groups follow the
// "<kind><index>.<subsystem>" convention ("node3.proc",
// "node3.memory"): the subsystem becomes the family component and the
// kind/index pair becomes a label ({node="3"}). Plain groups
// ("scheduler", "network", "machine") map to unlabeled families.
func splitGroup(group string) (family, labelName, labelValue string, order int) {
	dot := strings.IndexByte(group, '.')
	if dot < 0 {
		return group, "", "", 0
	}
	head, tail := group[:dot], group[dot+1:]
	// Split head into a letter prefix and a digit suffix.
	i := len(head)
	for i > 0 && head[i-1] >= '0' && head[i-1] <= '9' {
		i--
	}
	if i == 0 || i == len(head) || tail == "" {
		// No letter prefix, no digits, or nothing after the dot: treat
		// the whole group as a family component, dot replaced later by
		// sanitization.
		return group, "", "", 0
	}
	n := 0
	for _, c := range head[i:] {
		n = n*10 + int(c-'0')
	}
	return tail, head[:i], head[i:], n
}

// sanitizeMetric maps an arbitrary string onto the Prometheus metric
// name alphabet [a-zA-Z0-9_] (':' is reserved for recording rules).
func sanitizeMetric(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeLabel escapes a label value per the text exposition format:
// backslash, double quote, and newline.
func escapeLabel(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// WritePrometheus renders a registry snapshot (trace.Registry.Snapshot)
// in the Prometheus text exposition format (version 0.0.4). Every
// metric is prefixed "april_"; per-node groups become labeled series of one family (april_proc_instructions{node="5"}),
// so a scrape of a 64-node machine yields a handful of families, not
// thousands. Output is deterministic: families sort by name, series by
// numeric label value, so diffing two scrapes diffs the numbers.
func WritePrometheus(w io.Writer, snap map[string]map[string]uint64) error {
	fams := map[string]*promFamily{}
	for group, counters := range snap {
		famComp, labelName, labelValue, order := splitGroup(group)
		for key, val := range counters {
			name := "april_" + sanitizeMetric(famComp) + "_" + sanitizeMetric(key)
			f := fams[name]
			if f == nil {
				typ := "counter"
				if gaugeKeys[key] {
					typ = "gauge"
				}
				f = &promFamily{name: name, typ: typ}
				fams[name] = f
			}
			f.rows = append(f.rows, promRow{
				labelName:  labelName,
				labelValue: labelValue,
				order:      order,
				value:      val,
			})
		}
	}
	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := fams[name]
		sort.Slice(f.rows, func(i, j int) bool {
			a, b := &f.rows[i], &f.rows[j]
			if a.order != b.order {
				return a.order < b.order
			}
			return a.labelValue < b.labelValue
		})
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, r := range f.rows {
			var err error
			if r.labelName == "" {
				_, err = fmt.Fprintf(w, "%s %d\n", f.name, r.value)
			} else {
				_, err = fmt.Fprintf(w, "%s{%s=\"%s\"} %d\n",
					f.name, sanitizeMetric(r.labelName), escapeLabel(r.labelValue), r.value)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}
