package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
)

// Registry unifies the stats scattered across subsystems (processor,
// scheduler, caches, directories, network) behind one Snapshot. A
// subsystem declares each counter once, as a field of its own stats
// struct tagged with the field's registry key,
//
//	Steals uint64 `counter:"steals"`
//
// and registers a pointer to that struct under a group. The registry
// holds no values: Snapshot reads the registered structs, so it always
// reflects the current state. Integer fields emit as-is, map and slice
// fields emit their length (a queue's depth), a [N]uint64 field tagged
// `counter:"k"` emits k_0 .. k_N-1, and untagged fields are not
// counters. Registrations under one group merge by key; a key
// registered twice takes the later registration's value.
type Registry struct {
	groups  []*group
	layouts map[layoutKey]*layout
}

// group is a run of registrations under one name; a name registered
// again after another group's run starts a new run that Snapshot merges.
type group struct {
	name    string
	entries []entry
	keys    int // keys the entries emit, to size the group's snapshot map
}

// entry is one registration. src is a struct pointer, a func
// returning a struct, Sum's []any of struct pointers, or a gauge's
// func() uint64 (whose layout is just its key).
type entry struct {
	lay *layout
	src any
}

type layoutKey struct {
	t   reflect.Type
	sum bool
}

// layout is a counter struct type's tagged fields and the keys they
// emit, shared by every registration of the type.
type layout struct {
	keys   []string
	fields []field
}

// field is one tagged field of a counter struct.
type field struct {
	index int
	n     int  // array length; 0 for a scalar
	len   bool // a map or slice: emits its length
}

// Register adds counter structs to group. Each counter is a pointer to
// a struct, read in place at snapshot time, or a func returning a
// struct (or a pointer to one), called at snapshot time for values
// computed on demand.
func (r *Registry) Register(group string, counters ...any) {
	g := r.group(group)
	g.entries = slices.Grow(g.entries, len(counters))
	for _, c := range counters {
		t := reflect.TypeOf(c)
		if t.Kind() == reflect.Func {
			t = t.Out(0)
		}
		if t.Kind() == reflect.Pointer {
			t = t.Elem()
		}
		g.add(entry{r.layout(layoutKey{t, false}), c})
	}
}

// Sum adds to group the field-by-field totals of structs, pointers to
// structs of one type: machine-wide sums of per-node counters. Fields
// tagged `counter:"key,nosum"` are left out.
func (r *Registry) Sum(group string, structs []any) {
	t := reflect.TypeOf(structs[0]).Elem()
	r.group(group).add(entry{r.layout(layoutKey{t, true}), structs})
}

// Gauge adds one derived value to group: a count that is no struct
// field (a sum over nodes, a method's result), read at snapshot time.
func (r *Registry) Gauge(group, key string, read func() uint64) {
	r.group(group).add(entry{&layout{keys: []string{key}}, read})
}

// group returns the run that registrations under name join: the last
// one if it has that name, else a new one.
func (r *Registry) group(name string) *group {
	if n := len(r.groups); n > 0 && r.groups[n-1].name == name {
		return r.groups[n-1]
	}
	g := &group{name: name}
	r.groups = append(r.groups, g)
	return g
}

func (g *group) add(e entry) {
	g.entries = append(g.entries, e)
	g.keys += len(e.lay.keys)
}

// layout returns k's layout, building it on first use.
func (r *Registry) layout(k layoutKey) *layout {
	if l := r.layouts[k]; l != nil {
		return l
	}
	l := &layout{}
	for i := 0; i < k.t.NumField(); i++ {
		sf := k.t.Field(i)
		tag, ok := sf.Tag.Lookup("counter")
		key, opt, _ := strings.Cut(tag, ",")
		if !ok || k.sum && opt == "nosum" {
			continue
		}
		f, ft := field{index: i}, sf.Type
		switch ft.Kind() {
		case reflect.Map, reflect.Slice:
			f.len = true
		case reflect.Array:
			f.n, ft = ft.Len(), ft.Elem()
		}
		if !f.len && (ft.Kind() < reflect.Int || ft.Kind() > reflect.Uint64) {
			panic(fmt.Sprintf("trace: counter %s.%s is %s, not an integer or a length", k.t, sf.Name, sf.Type))
		}
		if f.n == 0 {
			l.keys = append(l.keys, key)
		}
		for j := 0; j < f.n; j++ {
			l.keys = append(l.keys, fmt.Sprintf("%s_%d", key, j))
		}
		l.fields = append(l.fields, f)
	}
	if r.layouts == nil {
		r.layouts = map[layoutKey]*layout{}
	}
	r.layouts[k] = l
	return l
}

// Snapshot reads every group. The result marshals to deterministic
// JSON (encoding/json sorts map keys).
func (r *Registry) Snapshot() map[string]map[string]uint64 {
	out := make(map[string]map[string]uint64, len(r.groups))
	var buf []uint64
	for _, grp := range r.groups {
		g := out[grp.name]
		if g == nil {
			g = make(map[string]uint64, grp.keys)
			out[grp.name] = g
		}
		for _, e := range grp.entries {
			if read, ok := e.src.(func() uint64); ok {
				g[e.lay.keys[0]] = read()
				continue
			}
			if cap(buf) < len(e.lay.keys) {
				buf = make([]uint64, len(e.lay.keys))
			}
			vals := buf[:len(e.lay.keys)]
			clear(vals)
			if structs, ok := e.src.([]any); ok {
				for _, s := range structs {
					e.lay.add(vals, reflect.ValueOf(s))
				}
			} else if v := reflect.ValueOf(e.src); v.Kind() == reflect.Func {
				e.lay.add(vals, v.Call(nil)[0])
			} else {
				e.lay.add(vals, v)
			}
			for j, k := range e.lay.keys {
				g[k] = vals[j]
			}
		}
	}
	return out
}

// add sums the tagged fields of the struct v holds or points to into
// vals, in key order.
func (l *layout) add(vals []uint64, v reflect.Value) {
	v = reflect.Indirect(v)
	j := 0
	for _, f := range l.fields {
		fv := v.Field(f.index)
		switch {
		case f.len:
			vals[j] += uint64(fv.Len())
			j++
		case f.n == 0:
			vals[j] += intValue(fv)
			j++
		}
		for i := 0; i < f.n; i++ {
			vals[j] += intValue(fv.Index(i))
			j++
		}
	}
}

func intValue(v reflect.Value) uint64 {
	if v.CanUint() {
		return v.Uint()
	}
	return uint64(v.Int())
}

// WriteJSON emits an indented snapshot.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
