// Package analysis is a stdlib-only static-analysis framework encoding
// the simulator's determinism invariants: the properties that make a
// run byte-identical at any -parallel level and therefore make the
// paper's figures reproducible. Each Analyzer walks the ASTs of one
// package unit and reports diagnostics with file:line positions; the
// cmd/nocvet driver loads every package in the module and exits
// nonzero if any rule fires.
//
// A finding can be waived in place with a comment directive on the
// offending line or the line directly above it:
//
//	//nocvet:allow maprange order is irrelevant: values are summed
//
// The first field names the rule (or a comma-separated list of rules);
// the rest of the line is the justification. Directives with no
// justification are themselves reported, so every waiver in the tree
// documents why determinism is preserved.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named invariant check. Run inspects the package
// unit in pass and reports findings via pass.Report.
type Analyzer struct {
	// Name is the rule identifier used in diagnostics and in
	// //nocvet:allow directives.
	Name string
	// Doc is a one-line description of the invariant.
	Doc string
	// Explain is the long-form documentation printed by
	// `nocvet -explain <rule>`: what the invariant protects, how the
	// rule decides, and when a waiver is legitimate.
	Explain string
	// Run executes the check over one package unit.
	Run func(pass *Pass)
}

// An allowEntry is one rule named by one //nocvet:allow directive,
// tracked so staleallow can flag directives that suppress nothing.
type allowEntry struct {
	rule string
	pos  token.Pos
	used bool
}

// A File is one parsed source file plus the metadata rules scope on.
type File struct {
	// AST is the parsed file (with comments).
	AST *ast.File
	// Name is the file path as given to the parser.
	Name string
	// Test reports whether the file is a _test.go file.
	Test bool

	// allows maps line number -> rules waived on that line.
	allows map[int][]*allowEntry
}

// A Pass carries one package unit through every analyzer.
type Pass struct {
	// Fset positions every AST node in Files.
	Fset *token.FileSet
	// Path is the package import path ("nocsim/internal/sim"). Rules
	// use it to scope themselves; fixture tests set it explicitly.
	Path string
	// PkgName is the package clause name of the primary unit.
	PkgName string
	// Dir is the package directory (may be empty in tests).
	Dir string
	// Files holds every file of the unit, test files included.
	Files []*File
	// Info holds type information for the primary (non-test) files,
	// or nil when type-checking was not performed. Typed rules must
	// tolerate nil.
	Info *types.Info

	diags *[]Diagnostic
	rule  string          // set by the driver while an analyzer runs
	ran   map[string]bool // names of every analyzer in this invocation
}

// A Diagnostic is one finding at a position.
type Diagnostic struct {
	Pos     token.Position `json:"-"`
	File    string         `json:"file"`
	Line    int            `json:"line"`
	Col     int            `json:"col"`
	Rule    string         `json:"rule"`
	Message string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Rule, d.Message)
}

// Reportf records a finding at pos unless an //nocvet:allow directive
// waives the running rule on that line or the line above.
func (p *Pass) Reportf(f *File, pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if f.allowed(p.rule, position.Line) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     position,
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Rule:    p.rule,
		Message: fmt.Sprintf(format, args...),
	})
}

func (f *File) allowed(rule string, line int) bool {
	for _, e := range f.allows[line] {
		if e.rule == rule {
			e.used = true
			return true
		}
	}
	for _, e := range f.allows[line-1] {
		if e.rule == rule {
			e.used = true
			return true
		}
	}
	return false
}

// allowDirective is the comment prefix that waives a rule.
const allowDirective = "nocvet:allow"

// scanDirectives indexes every //nocvet:allow comment in f and reports
// directives that carry no justification text as findings of the
// pseudo-rule "directive".
func scanDirectives(fset *token.FileSet, f *File, diags *[]Diagnostic) {
	f.allows = make(map[int][]*allowEntry)
	for _, cg := range f.AST.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			if !strings.HasPrefix(text, allowDirective) {
				continue
			}
			rest := strings.TrimPrefix(text, allowDirective)
			fields := strings.Fields(rest)
			pos := fset.Position(c.Pos())
			if len(fields) == 0 {
				*diags = append(*diags, Diagnostic{
					Pos: pos, File: pos.Filename, Line: pos.Line, Col: pos.Column,
					Rule:    "directive",
					Message: "nocvet:allow directive names no rule",
				})
				continue
			}
			if len(fields) == 1 {
				*diags = append(*diags, Diagnostic{
					Pos: pos, File: pos.Filename, Line: pos.Line, Col: pos.Column,
					Rule:    "directive",
					Message: fmt.Sprintf("nocvet:allow %s carries no justification", fields[0]),
				})
			}
			for _, rule := range strings.Split(fields[0], ",") {
				f.allows[pos.Line] = append(f.allows[pos.Line], &allowEntry{rule: rule, pos: c.Pos()})
			}
		}
	}
}

// Run executes every analyzer over the package unit and returns the
// findings sorted by position then rule. The unit's directive index is
// built here, so callers only need to fill the Pass fields.
func Run(pass *Pass, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	pass.diags = &diags
	pass.ran = make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		pass.ran[a.Name] = true
	}
	for _, f := range pass.Files {
		scanDirectives(pass.Fset, f, &diags)
	}
	for _, a := range analyzers {
		pass.rule = a.Name
		a.Run(pass)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
	return diags
}

// knownRules names every rule in the set; staleallow consults it to
// flag directives naming rules that cannot exist.
var knownRules = map[string]bool{}

func init() {
	for _, a := range Rules() {
		knownRules[a.Name] = true
	}
}

// Rules returns the full rule set in a stable order. StaleAllow must
// stay last: it inspects which waivers the preceding analyzers used.
func Rules() []*Analyzer {
	return []*Analyzer{
		Wallclock,
		GlobalRand,
		MapRange,
		RawConfig,
		Goroutine,
		PanicMsg,
		StaleAllow,
	}
}

// importName returns the local name under which path is imported in f,
// and whether it is imported at all. A dot import returns ".".
func importName(f *ast.File, path string) (string, bool) {
	for _, imp := range f.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		if p != path {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name, true
		}
		if i := strings.LastIndex(p, "/"); i >= 0 {
			p = p[i+1:]
		}
		return p, true
	}
	return "", false
}

// isPkgSel reports whether e is a selector pkgName.sel where pkgName is
// a plain (package-level) identifier, i.e. not shadowed by a field or
// local in the obvious syntactic sense. Shadowing of an import name by
// a local variable is rare enough in this tree that the syntactic check
// is sufficient; typed rules use go/types instead.
func isPkgSel(e ast.Expr, pkgName, sel string) bool {
	s, ok := e.(*ast.SelectorExpr)
	if !ok || s.Sel.Name != sel {
		return false
	}
	id, ok := s.X.(*ast.Ident)
	return ok && id.Name == pkgName && id.Obj == nil
}
