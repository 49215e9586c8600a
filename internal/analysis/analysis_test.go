package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// fixtureCases maps each golden fixture package to the import path it
// impersonates. Fixtures with // want comments are failing cases (the
// rule must fire exactly there); fixtures without are passing cases
// (the rule must stay silent).
var fixtureCases = []struct {
	dir  string
	path string
}{
	{"wallclock", "nocsim/internal/sim"},
	{"wallclock_exempt", "nocsim/cmd/probe"},
	{"wallclock_obs", "nocsim/internal/obs"},
	{"wallclock_exempt_runner", "nocsim/internal/runner"},
	{"wallclock_exempt_serve", "nocsim/internal/serve"},
	{"wallclock_exempt_fleet", "nocsim/internal/fleet"},
	{"globalrand", "nocsim/internal/traffic"},
	{"globalrand_clean", "nocsim/internal/traffic"},
	{"maprange", "nocsim/internal/stats"},
	{"maprange_obs", "nocsim/internal/obs"},
	{"maprange_exempt", "nocsim/internal/cache"},
	{"rawconfig", "nocsim/internal/exp"},
	{"rawconfig_exempt", "nocsim/internal/runner"},
	{"goroutine", "nocsim/internal/exp"},
	{"goroutine_exempt", "nocsim/internal/runner"},
	{"goroutine_exempt_serve", "nocsim/internal/serve"},
	{"goroutine_exempt_fleet", "nocsim/internal/fleet"},
	{"panicmsg", "nocsim/internal/cache"},
	{"panicmsg_main", "nocsim/cmd/probe"},
}

func TestFixtures(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range fixtureCases {
		t.Run(tc.dir, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", tc.dir)
			pass, typeErrs, err := loader.LoadDir(dir, tc.path, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, te := range typeErrs {
				t.Errorf("fixture does not type-check: %v", te)
			}
			diags := Run(pass, Rules())
			checkWants(t, pass, diags)
		})
	}
}

type want struct {
	re   *regexp.Regexp
	used bool
}

// checkWants compares diagnostics against the fixture's // want
// comments: every diagnostic must match an unused want on its line,
// and every want must be consumed.
func checkWants(t *testing.T, pass *Pass, diags []Diagnostic) {
	t.Helper()
	wants := map[string][]*want{}
	for _, f := range pass.Files {
		for _, cg := range f.AST.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pass.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, pat := range wantPatterns(t, text[len("want "):]) {
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", key, pat, err)
					}
					wants[key] = append(wants[key], &want{re: re})
				}
			}
		}
	}
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.File, d.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.used && w.re.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.used {
				t.Errorf("%s: want %q: no diagnostic reported", key, w.re)
			}
		}
	}
}

// wantPatterns extracts the quoted regexes of one want comment; both
// "double-quoted" and `backtick-quoted` patterns are accepted.
func wantPatterns(t *testing.T, s string) []string {
	t.Helper()
	var pats []string
	for _, m := range regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`").FindAllString(s, -1) {
		if m[0] == '`' {
			pats = append(pats, m[1:len(m)-1])
			continue
		}
		unq, err := strconv.Unquote(m)
		if err != nil {
			t.Fatalf("bad want pattern %s: %v", m, err)
		}
		pats = append(pats, unq)
	}
	if len(pats) == 0 {
		t.Fatalf("want comment with no pattern: %q", s)
	}
	return pats
}

// TestRepoClean is the merge gate in test form: nocvet must report
// zero findings over the real tree.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check; CI runs cmd/nocvet directly")
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := loader.Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) < 20 {
		t.Fatalf("expected the module walk to find at least 20 packages, got %d", len(dirs))
	}
	for _, dir := range dirs {
		pass, typeErrs, err := loader.LoadDir(dir, loader.ImportPath(dir), true)
		if err != nil {
			t.Fatal(err)
		}
		for _, te := range typeErrs {
			t.Errorf("%s: type error: %v", loader.ImportPath(dir), te)
		}
		for _, d := range Run(pass, Rules()) {
			t.Errorf("finding on clean tree: %s", d)
		}
	}
}

func loadSnippet(t *testing.T, src, path string) []Diagnostic {
	t.Helper()
	return loadSnippetWith(t, src, path, Rules())
}

func loadSnippetWith(t *testing.T, src, path string, rules []*Analyzer) []Diagnostic {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snippet.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pass, _, err := loader.LoadDir(dir, path, false)
	if err != nil {
		t.Fatal(err)
	}
	return Run(pass, rules)
}

func TestDirectiveWithoutJustification(t *testing.T) {
	diags := loadSnippet(t, `package tmp

func f() {
	done := make(chan struct{})
	//nocvet:allow goroutine
	go func() { close(done) }()
	<-done
}
`, "nocsim/internal/exp")
	if len(diags) != 1 {
		t.Fatalf("diagnostics = %v, want exactly the directive finding", diags)
	}
	if diags[0].Rule != "directive" || !strings.Contains(diags[0].Message, "no justification") {
		t.Errorf("diagnostic = %s, want unjustified-directive finding", diags[0])
	}
}

func TestDirectiveWithoutRule(t *testing.T) {
	diags := loadSnippet(t, `package tmp

//nocvet:allow
func f() {}
`, "nocsim/internal/exp")
	if len(diags) != 1 || diags[0].Rule != "directive" || !strings.Contains(diags[0].Message, "names no rule") {
		t.Fatalf("diagnostics = %v, want the names-no-rule finding", diags)
	}
}

func TestDirectiveMultiRule(t *testing.T) {
	diags := loadSnippet(t, `package tmp

import (
	"sync"
	"time"
)

func f() time.Time {
	//nocvet:allow goroutine,wallclock snippet: both rules waived at once
	var wg, t = sync.WaitGroup{}, time.Now()
	wg.Wait()
	return t
}
`, "nocsim/internal/exp")
	if len(diags) != 0 {
		t.Fatalf("diagnostics = %v, want none", diags)
	}
}

func TestStaleAllowFlagsUnusedWaiver(t *testing.T) {
	diags := loadSnippet(t, `package tmp

//nocvet:allow wallclock stale: nothing below reads the clock
func f() int { return 1 }
`, "nocsim/internal/exp")
	if len(diags) != 1 || diags[0].Rule != "staleallow" ||
		!strings.Contains(diags[0].Message, "suppresses no finding") {
		t.Fatalf("diagnostics = %v, want exactly one stale-waiver finding", diags)
	}
}

func TestStaleAllowFlagsUnknownRule(t *testing.T) {
	diags := loadSnippet(t, `package tmp

//nocvet:allow wallcock mistyped rule name
func f() int { return 1 }
`, "nocsim/internal/exp")
	if len(diags) != 1 || diags[0].Rule != "staleallow" ||
		!strings.Contains(diags[0].Message, `unknown rule "wallcock"`) {
		t.Fatalf("diagnostics = %v, want exactly one unknown-rule finding", diags)
	}
}

func TestStaleAllowSkipsUnselectedRules(t *testing.T) {
	// A subset run cannot judge waivers of rules that did not run: the
	// wallclock waiver below would be stale under the full set, but a
	// maprange-only selection must stay silent about it.
	diags := loadSnippetWith(t, `package tmp

//nocvet:allow wallclock judged only when wallclock itself runs
func f() int { return 1 }
`, "nocsim/internal/exp", []*Analyzer{MapRange, StaleAllow})
	if len(diags) != 0 {
		t.Fatalf("diagnostics = %v, want none from a subset run", diags)
	}
}

func TestExpandSkipsTestdata(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := loader.Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if strings.Contains(d, "testdata") || strings.Contains(d, string(filepath.Separator)+".") {
			t.Errorf("Expand included %s", d)
		}
	}
}
