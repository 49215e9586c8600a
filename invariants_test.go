package nocsim

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The static invariants (DESIGN.md §6): rules that keep a run a pure
// function of its configuration and seed, and keep the presets and
// panic messages honest. Each is scoped by the file's directory, and
// all but maprange read one file's syntax and import names:
//
//   - wallclock: no time.Now/Since/Until outside cmd/, internal/runner,
//     internal/serve and internal/fleet. Simulated time is the cycle
//     counter; those layers only time runs, requests and dispatches.
//   - globalrand: no math/rand or math/rand/v2 import anywhere, test
//     files included; internal/rng gives seeded per-component streams.
//   - goroutine: no go statement or sync.WaitGroup outside
//     internal/runner, internal/serve and internal/fleet. A simulation
//     steps on one goroutine.
//   - rawconfig: no sim.Config composite literal outside internal/runner
//     and internal/sim; drivers assemble configs through the presets.
//   - panicmsg: a panic message that is visible in the source starts
//     with "pkg:", the package name with _test folded in (a main
//     package is named after its directory).
//   - maprange: no range over a map in the non-test files of the
//     packages that build results and exports (mapRangeDirs, with
//     their subdirectories). Go starts every map range at a random
//     slot. The determinism oracle in internal/exp catches an order
//     that reaches its bytes when the range runs often; a range that
//     runs once per render over a few keys passes it by luck in some
//     runs (CHANGES.md has the mutation table). The rule type-checks
//     its packages, importing from source.

// mapRangeDirs are the maprange rule's packages.
var mapRangeDirs = []string{"internal/sim", "internal/obs", "internal/stats", "internal/noc", "internal/exp", "internal/plot"}

// exempt lists the files a rule skips, and why.
var exempt = []struct{ file, rule, why string }{
	{"perfbench/clock.go", "wallclock", "benchmark timing of host work; its timestamps never reach simulator state or results"},
}

// A finding is one rule violation. Waived findings fall under exempt.
type finding struct {
	pos    token.Position
	rule   string
	msg    string
	waived bool
}

func (f finding) String() string { return fmt.Sprintf("%s: [%s] %s", f.pos, f.rule, f.msg) }

// newFinding records a finding at n in the file rel, waived when
// exempt lists that file and rule.
func newFinding(fset *token.FileSet, rel string, n ast.Node, rule, msg string) finding {
	fd := finding{pos: fset.Position(n.Pos()), rule: rule, msg: msg}
	for _, e := range exempt {
		fd.waived = fd.waived || (e.file == rel && e.rule == rule)
	}
	return fd
}

// checkFile applies every rule to one parsed file; rel is its
// slash-separated path from the module root.
func checkFile(fset *token.FileSet, rel string, f *ast.File) []finding {
	dir := path.Dir(rel)
	var out []finding
	report := func(n ast.Node, rule, format string, args ...any) {
		out = append(out, newFinding(fset, rel, n, rule, fmt.Sprintf(format, args...)))
	}
	service := dir == "internal/runner" || dir == "internal/serve" || dir == "internal/fleet"
	clockOK := service || strings.HasPrefix(dir, "cmd/")
	configOK := dir == "internal/runner" || dir == "internal/sim"
	prefix := panicPrefix(f.Name.Name, dir) + ":"
	imports := map[string]string{} // local name -> import path
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		if p == "math/rand" || p == "math/rand/v2" {
			report(imp, "globalrand", "import of %s; use internal/rng for deterministic seeded streams", p)
		}
		name := path.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = p
	}
	// qual names what a selector pkg.Sel refers to by import path, or
	// "" when its left side is not an import (a local or field of that
	// name shadows it).
	qual := func(e ast.Expr) string {
		if s, ok := e.(*ast.SelectorExpr); ok {
			if id, ok := s.X.(*ast.Ident); ok && id.Obj == nil && imports[id.Name] != "" {
				return imports[id.Name] + "." + s.Sel.Name
			}
		}
		return ""
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if !service {
				report(n, "goroutine", "go statement outside internal/runner, serve and fleet")
			}
		case *ast.SelectorExpr:
			switch q := qual(n); {
			case !clockOK && (q == "time.Now" || q == "time.Since" || q == "time.Until"):
				report(n, "wallclock", "%s reads the wall clock; simulator code must be deterministic", q)
			case !service && q == "sync.WaitGroup":
				report(n, "goroutine", "sync.WaitGroup outside internal/runner, serve and fleet")
			}
		case *ast.CompositeLit:
			if !configOK && qual(n.Type) == "nocsim/internal/sim.Config" {
				report(n, "rawconfig", "raw sim.Config literal; assemble configs with runner.Baseline/Controlled and With* options")
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "panic" && len(n.Args) == 1 {
				if msg, ok := leadingString(n.Args[0], qual); ok && !strings.HasPrefix(msg, prefix) {
					report(n, "panicmsg", "panic message %q does not start with %q", msg, prefix+" ")
				}
			}
		}
		return true
	})
	return out
}

// checkMapRange type-checks the non-test files of the package in dir
// and flags every range over a map, when dir is in the rule's scope.
func checkMapRange(fset *token.FileSet, imp types.Importer, dir string, files []*ast.File) []finding {
	inScope := false
	for _, d := range mapRangeDirs {
		inScope = inScope || dir == d || strings.HasPrefix(dir, d+"/")
	}
	if !inScope {
		return nil
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	conf := types.Config{Importer: imp, Error: func(error) {}} // the build reports type errors
	conf.Check(dir, fset, files, info)
	var out []finding
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if t := info.Types[rs.X].Type; t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					rel := filepath.ToSlash(fset.Position(rs.Pos()).Filename)
					out = append(out, newFinding(fset, rel, rs, "maprange",
						fmt.Sprintf("range over %s iterates in random order; range over sorted keys", t)))
				}
			}
			return true
		})
	}
	return out
}

// panicPrefix is the package name, with the _test suffix folded into
// the package under test, and a main package named after its directory.
func panicPrefix(pkg, dir string) string {
	pkg = strings.TrimSuffix(pkg, "_test")
	if pkg == "main" && dir != "." {
		return path.Base(dir)
	}
	return pkg
}

// leadingString resolves the leftmost string literal of a panic
// argument: a literal, a + concatenation, or the first argument of
// fmt.Sprintf, fmt.Errorf or errors.New.
func leadingString(e ast.Expr, qual func(ast.Expr) string) (string, bool) {
	switch e := e.(type) {
	case *ast.BasicLit:
		s, err := strconv.Unquote(e.Value)
		return s, err == nil
	case *ast.BinaryExpr:
		return leadingString(e.X, qual)
	case *ast.ParenExpr:
		return leadingString(e.X, qual)
	case *ast.CallExpr:
		if q := qual(e.Fun); len(e.Args) > 0 && (q == "fmt.Sprintf" || q == "fmt.Errorf" || q == "errors.New") {
			return leadingString(e.Args[0], qual)
		}
	}
	return "", false
}

// TestInvariantsHoldInTree checks every Go file of the tree, perfbench/
// included. testdata, vendor, hidden and _ directories are skipped, as
// the go tool skips them.
func TestInvariantsHoldInTree(t *testing.T) {
	fset := token.NewFileSet()
	files := 0
	var dirs []string
	primary := map[string][]*ast.File{} // non-test files by directory
	var all []finding
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		files++
		rel := filepath.ToSlash(p)
		all = append(all, checkFile(fset, rel, f)...)
		if dir := path.Dir(rel); !strings.HasSuffix(name, "_test.go") {
			if primary[dir] == nil {
				dirs = append(dirs, dir)
			}
			primary[dir] = append(primary[dir], f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("the walk parsed %d Go files; want the whole tree", files)
	}
	imp := importer.ForCompiler(fset, "source", nil)
	for _, dir := range dirs {
		all = append(all, checkMapRange(fset, imp, dir, primary[dir])...)
	}
	for _, e := range exempt {
		used := false
		for _, fd := range all {
			used = used || (fd.waived && e.file == filepath.ToSlash(fd.pos.Filename) && e.rule == fd.rule)
		}
		if !used {
			t.Errorf("exemption %s %s waives nothing; delete it", e.file, e.rule)
		}
	}
	for _, fd := range all {
		if !fd.waived {
			t.Error(fd)
		}
	}
}

// TestInvariantRules pins each rule's flagged and clean cases and each
// scope boundary on in-memory sources. want lists the rules that fire,
// in source order.
func TestInvariantRules(t *testing.T) {
	cases := []struct {
		name, file, src, want string
	}{
		{"wallclock", "internal/sim/x.go", `package sim
import "time"
func f() time.Duration { t := time.Now(); _ = time.Until(t); return time.Since(t) }`, "wallclock wallclock wallclock"},
		{"wallclock_alias", "internal/sim/x.go", `package sim
import clock "time"
func f() clock.Time { return clock.Now() }`, "wallclock"},
		{"wallclock_test_file", "internal/sim/x_test.go", `package sim
import "time"
var t0 = time.Now()`, "wallclock"},
		{"wallclock_durations", "internal/sim/x.go", `package sim
import "time"
func f() time.Duration { return time.Duration(5) * time.Millisecond }`, ""},
		{"wallclock_obs", "internal/obs/x.go", `package obs
import "time"
type sample struct{ at time.Time }
func record() sample { return sample{at: time.Now()} }
func age(s sample) time.Duration { return time.Since(s.at) }`, "wallclock wallclock"},
		{"wallclock_shadowed", "internal/obs/x.go", `package obs
type clock struct{ Now int }
func f() int { time := clock{}; return time.Now }`, ""},
		{"wallclock_exempt", "cmd/probe/main.go", `package main
import ("fmt"; "time")
func main() { start := time.Now(); fmt.Println(time.Since(start)) }`, ""},
		{"wallclock_exempt_runner", "internal/runner/x.go", `package runner
import "time"
func f() time.Duration { return time.Since(time.Now()) }`, ""},
		{"wallclock_exempt_serve", "internal/serve/x.go", `package serve
import "time"
func f(d time.Time) bool { return time.Now().After(d) }`, ""},
		{"wallclock_exempt_fleet", "internal/fleet/x.go", `package fleet
import "time"
func f(d time.Time) bool { return !time.Now().Before(d) }`, ""},
		{"wallclock_perfbench", "perfbench/grid.go", `package main
import "time"
var t0 = time.Now()`, "wallclock"},
		{"wallclock_perfbench_clock", "perfbench/clock.go", `package main
import "time"
func now() time.Time { return time.Now() }`, ""},
		{"globalrand", "internal/traffic/x.go", `package traffic
import "math/rand"
func f() int { return rand.Intn(4) }`, "globalrand"},
		{"globalrand_v2", "cmd/sweep/x.go", `package main
import randv2 "math/rand/v2"
func f() int { return randv2.IntN(4) }`, "globalrand"},
		{"globalrand_test_file", "internal/runner/x_test.go", `package runner_test
import "math/rand"
var _ = rand.Intn`, "globalrand"},
		{"globalrand_clean", "internal/traffic/x.go", `package traffic
import "nocsim/internal/rng"
func f(seed uint64) int { return rng.New(seed).Intn(6) }`, ""},
		{"goroutine", "internal/exp/x.go", `package exp
import "sync"
func f() { done := make(chan struct{}); go func() { close(done) }(); <-done }
func g() { var wg sync.WaitGroup; wg.Wait() }
func h() { var mu sync.Mutex; mu.Lock(); mu.Unlock() }`, "goroutine goroutine"},
		{"goroutine_test_file", "internal/sim/x_test.go", `package sim
func f() { go func() {}() }`, "goroutine"},
		{"goroutine_exempt", "internal/runner/x.go", `package runner
import "sync"
func pool(fns []func()) { var wg sync.WaitGroup; for _, fn := range fns { wg.Add(1); go func() { defer wg.Done(); fn() }() }; wg.Wait() }`, ""},
		{"goroutine_exempt_serve", "internal/serve/x.go", `package serve
import "sync"
func drain(jobs chan func()) { var wg sync.WaitGroup; wg.Add(1); go func() { defer wg.Done(); for j := range jobs { j() } }(); wg.Wait() }`, ""},
		{"goroutine_exempt_fleet", "internal/fleet/x.go", `package fleet
func probe(tick func()) { go tick() }`, ""},
		{"goroutine_runner_subdir", "internal/runner/sub/x.go", `package sub
func f() { go func() {}() }`, "goroutine"},
		{"rawconfig", "internal/exp/x.go", `package exp
import "nocsim/internal/sim"
func f() sim.Config { return sim.Config{Width: 4, Height: 4} }
func g() *sim.Config { return &sim.Config{} }
func h(cfg sim.Config) *sim.Sim { return sim.New(cfg) }`, "rawconfig rawconfig"},
		{"rawconfig_alias", "internal/exp/x.go", `package exp
import simulation "nocsim/internal/sim"
func f() simulation.Config { return simulation.Config{Height: 2} }`, "rawconfig"},
		{"rawconfig_cmd", "cmd/sweep/x.go", `package main
import "nocsim/internal/sim"
var cfg = sim.Config{}`, "rawconfig"},
		{"rawconfig_exempt", "internal/runner/x.go", `package runner
import "nocsim/internal/sim"
func preset() sim.Config { return sim.Config{Width: 8, Height: 8} }`, ""},
		{"rawconfig_exempt_sim", "internal/sim/x.go", `package sim
var cfg = Config{}`, ""},
		{"rawconfig_exempt_sim_test", "internal/sim/x_test.go", `package sim_test
import "nocsim/internal/sim"
var cfg = sim.Config{}`, ""},
		{"panicmsg", "internal/cache/x.go", `package cache
import ("errors"; "fmt")
func a() { panic("missing prefix") }
func b(n int) { panic(fmt.Sprintf("got %d", n)) }
func c(s string) { panic("unknown app " + s) }
func d() { panic(errors.New("boom")) }
func e(n int) { panic(fmt.Errorf("got %d", n)) }
func ok1() { panic("cache: bad state") }
func ok2(n int) { panic(fmt.Sprintf("cache: got %d", n)) }
func ok3(s string) { panic(("cache: unknown app ") + s) }
func ok4(err error) { panic(err) }`, "panicmsg panicmsg panicmsg panicmsg panicmsg"},
		{"panicmsg_test_package", "internal/cache/x_test.go", `package cache_test
func a() { panic("no prefix here") }
func b() { panic("cache: from a test helper") }`, "panicmsg"},
		{"panicmsg_main", "cmd/probe/main.go", `package main
func f(n int) { if n <= 0 { panic("probe: need positive n") }; panic("too big") }`, "panicmsg"},
		{"maprange", "internal/stats/x.go", `package stats
type counts map[int]int
func bad(m map[string]float64) (out []float64) { for _, v := range m { out = append(out, v) }; return out }
func badNamed(c counts) (n int) { for range c { n++ }; return n }
func good(xs []int) (n int) { for _, x := range xs { n += x }; return n }`, "maprange maprange"},
		{"maprange_obs", "internal/obs/x.go", `package obs
func rows(rates map[int]float64) (out []float64) { for _, r := range rates { out = append(out, r) }; return out }`, "maprange"},
		{"maprange_noc_subdir", "internal/noc/bless/x.go", `package bless
var m = map[int]int{}
func f() { for k := range m { _ = k } }`, "maprange"},
		{"maprange_test_file", "internal/stats/x_test.go", `package stats
func f(m map[string]int) { for range m {} }`, ""},
		{"maprange_exempt", "internal/cache/x.go", `package cache
func sum(m map[string]float64) (s float64) { for _, v := range m { s += v }; return s }`, ""},
		{"panicmsg_root", "x_test.go", `package nocsim
func f() { panic("nocsim: ok"); panic("bare") }`, "panicmsg"},
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := parser.ParseFile(fset, tc.file, tc.src, 0)
			if err != nil {
				t.Fatal(err)
			}
			fds := checkFile(fset, tc.file, f)
			if !strings.HasSuffix(tc.file, "_test.go") {
				fds = append(fds, checkMapRange(fset, imp, path.Dir(tc.file), []*ast.File{f})...)
			}
			var got []string
			for _, fd := range fds {
				if !fd.waived {
					got = append(got, fd.rule)
				}
			}
			if g := strings.Join(got, " "); g != tc.want {
				t.Errorf("rules fired %q, want %q: %v", g, tc.want, fds)
			}
		})
	}
}
