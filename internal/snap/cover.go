package snap

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
)

// The coverage registry: every struct type that participates in a
// snapshot declares each of its fields as either serialized or waived
// (with a reason). Verify then walks the reachable type graph from a
// set of roots and fails if any struct in a simulator package has a
// field that is neither — the reflection analogue of the
// source-level invariants in invariants_test.go, aimed at the codec: adding a field to any
// state struct without deciding its snapshot fate fails the build's
// tests, not a future bug hunt.

// Coverage is one type's declaration.
type Coverage struct {
	// Serialized lists the fields the codec encodes, in encoding order
	// (see Encode).
	Serialized []string
	// Waived maps field name -> reason the codec skips it (derived from
	// construction, scratch that is fully rewritten before any read,
	// handles/pointers rebuilt on restore, or "hook: ..." for state the
	// type's Encoder/Decoder hook encodes itself).
	Waived map[string]string
}

var (
	coverMu  sync.Mutex
	coverage = map[reflect.Type]Coverage{}
)

// Cover registers the snapshot coverage of zero's type. It panics at
// init time when a named field does not exist on the type or is listed
// twice — a typo in a registration is a programmer error. A field
// present on the type but absent from the registration is NOT a panic:
// it is exactly the drift Verify exists to report.
func Cover(zero any, c Coverage) {
	t := reflect.TypeOf(zero)
	if t.Kind() != reflect.Struct {
		panic(fmt.Sprintf("snap: Cover(%v): not a struct", t))
	}
	seen := map[string]bool{}
	check := func(name string) {
		if _, ok := t.FieldByName(name); !ok && name != "_" {
			panic(fmt.Sprintf("snap: Cover(%v): no field %q", t, name))
		}
		if seen[name] && name != "_" {
			panic(fmt.Sprintf("snap: Cover(%v): field %q listed twice", t, name))
		}
		seen[name] = true
	}
	for _, f := range c.Serialized {
		check(f)
	}
	for f := range c.Waived {
		check(f)
	}
	coverMu.Lock()
	defer coverMu.Unlock()
	if _, dup := coverage[t]; dup {
		panic(fmt.Sprintf("snap: Cover(%v): registered twice", t))
	}
	coverage[t] = c
}

// CoverConfig registers a configuration struct (a type named *Config
// or *Options) with every field waived: the configuration a blob is
// restored into must match the one it was taken from. State structs
// list their fields one by one, so a field added later is reported by
// Verify instead of being waived silently.
func CoverConfig(zero any) {
	t := reflect.TypeOf(zero)
	if !strings.HasSuffix(t.Name(), "Config") && !strings.HasSuffix(t.Name(), "Options") {
		panic(fmt.Sprintf("snap: CoverConfig(%v): not a configuration type", t))
	}
	c := Coverage{Waived: map[string]string{}}
	for i := 0; i < t.NumField(); i++ {
		c.Waived[t.Field(i).Name] = "config: construction input"
	}
	Cover(zero, c)
}

// Covered returns the registered coverage for t, if any.
func Covered(t reflect.Type) (Coverage, bool) {
	coverMu.Lock()
	defer coverMu.Unlock()
	c, ok := coverage[t]
	return c, ok
}

// VerifyOptions parameterises the completeness walk.
type VerifyOptions struct {
	// PkgPrefix restricts which struct types must be registered: only
	// types whose package path starts with the prefix are checked
	// (stdlib and third-party types are structural, not state).
	PkgPrefix string
	// Opaque lists types the walk treats as leaves: construction-time
	// structure (topologies, worker pools, profiles) that holds no
	// mutable simulation state. Their fields are not descended into and
	// need no registration.
	Opaque []any
}

// Verify walks the type graph reachable from the given roots and
// returns one message per violation: a struct type in scope with no
// Cover registration, a registered type with fields that are neither
// serialized nor waived, or a serialized field the codec cannot encode
// (a func, a channel, an interface no registered type implements, a
// hook with only its writer half). A nil return means the codec covers
// every reachable field.
//
// The walk is over types, not values, so it is independent of runtime
// state (nil pointers, empty slices) and needs no access to unexported
// field values. Interface-typed fields cannot be walked by type alone;
// pass every concrete implementation as its own root.
func Verify(opts VerifyOptions, roots ...any) []string {
	opaque := map[reflect.Type]bool{}
	for _, o := range opts.Opaque {
		t := reflect.TypeOf(o)
		for t.Kind() == reflect.Ptr {
			t = t.Elem()
		}
		opaque[t] = true
	}
	var problems []string
	reported := map[string]bool{}
	report := func(p string) {
		if !reported[p] {
			reported[p] = true
			problems = append(problems, p)
		}
	}
	visited := map[reflect.Type]bool{}
	var walk func(t reflect.Type)
	walk = func(t reflect.Type) {
		switch t.Kind() {
		case reflect.Ptr, reflect.Slice, reflect.Array, reflect.Chan:
			walk(t.Elem())
			return
		case reflect.Map:
			walk(t.Key())
			walk(t.Elem())
			return
		case reflect.Struct:
		default:
			return
		}
		if visited[t] || opaque[t] {
			return
		}
		visited[t] = true
		inScope := strings.HasPrefix(t.PkgPath(), opts.PkgPrefix)
		c, registered := Covered(t)
		if inScope && !registered {
			report(fmt.Sprintf("%v: struct not registered with snap.Cover", t))
			// Still descend: nested state should be reported too.
		}
		if inScope && registered {
			if _, err := codecFor(t); err != nil {
				report(err.Error())
			}
		}
		covered := map[string]bool{}
		if registered {
			for _, f := range c.Serialized {
				covered[f] = true
			}
			for f := range c.Waived {
				covered[f] = true
			}
		}
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if inScope && registered && !covered[f.Name] && f.Name != "_" {
				report(fmt.Sprintf("%v.%s: field neither serialized nor waived", t, f.Name))
			}
			walk(f.Type)
		}
	}
	for _, root := range roots {
		walk(reflect.TypeOf(root))
	}
	sort.Strings(problems)
	return problems
}
