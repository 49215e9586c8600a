// Package escape is the compiler-backed complement to the hotalloc
// static rule and the runtime allocs-per-cycle gate: it parses the gc
// escape-analysis diagnostics (`go build -gcflags=-m`) and checks them
// against a watch list of hot-path functions. A new heap escape inside
// a watched function fails the check with the exact file:line, instead
// of surfacing later as an opaque allocs-per-cycle bump — and unlike
// hotalloc, the compiler also sees escapes the AST walk cannot prove
// (interface dispatch, flow-dependent moves to heap).
package escape

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"path/filepath"
	"strconv"
	"strings"
)

// A Diag is one escape diagnostic emitted by the compiler.
type Diag struct {
	File string `json:"file"` // slash path as printed by the compiler
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Msg  string `json:"msg"`
}

func (d Diag) String() string {
	return fmt.Sprintf("%s:%d:%d: %s", d.File, d.Line, d.Col, d.Msg)
}

// ParseDiagnostics extracts the heap-escape lines ("... escapes to
// heap", "moved to heap: ...") from compiler output. Other -m chatter
// (inlining decisions, leaking-param notes) and diagnostics without a
// real position (<autogenerated>) are dropped.
func ParseDiagnostics(r io.Reader) []Diag {
	var out []Diag
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.Contains(line, "escapes to heap") && !strings.Contains(line, "moved to heap") {
			continue
		}
		d, ok := parseLine(line)
		if ok {
			out = append(out, d)
		}
	}
	return out
}

// parseLine splits "file:line:col: msg"; a missing column (some
// toolchains omit it) parses as 0.
func parseLine(s string) (Diag, bool) {
	if strings.HasPrefix(s, "<autogenerated>") {
		return Diag{}, false
	}
	rest := s
	i := strings.Index(rest, ".go:")
	if i < 0 {
		return Diag{}, false
	}
	file := rest[:i+len(".go")]
	rest = rest[i+len(".go:"):]
	parts := strings.SplitN(rest, ":", 3)
	if len(parts) < 2 {
		return Diag{}, false
	}
	line, err := strconv.Atoi(parts[0])
	if err != nil {
		return Diag{}, false
	}
	col := 0
	msg := ""
	if c, err := strconv.Atoi(parts[1]); err == nil && len(parts) == 3 {
		col = c
		msg = strings.TrimSpace(parts[2])
	} else {
		msg = strings.TrimSpace(strings.Join(parts[1:], ":"))
	}
	return Diag{File: filepath.ToSlash(file), Line: line, Col: col, Msg: msg}, true
}

// A Watch maps a module-relative file to the hot functions whose
// bodies must stay escape-free.
type Watch map[string][]string

// An Allow is one sanctioned escape: a diagnostic in File whose
// enclosing function is Func and whose message starts with Match (a
// prefix, so "d escapes to heap" cannot accidentally cover a new "wd
// escapes to heap"). The baseline entries are panic-path formatting —
// a path that ends the process may box its message.
type Allow struct {
	File  string
	Func  string
	Match string
}

// DefaultWatches lists the per-cycle functions of every fabric and the
// NIC/pool entry points: the transitive hot path of Step.
func DefaultWatches() Watch {
	return Watch{
		"internal/noc/nic.go": {
			"Send", "Receive", "Head", "Pop",
			"HeadRequest", "HeadReply", "PopRequest", "PopReply",
		},
		"internal/noc/flitpool.go": {"Alloc", "Free", "Get", "Hot", "Cold"},
		"internal/noc/chassis/chassis.go": {
			"EndStep", "activate", "Wake", "Settle", "Poke", "Replay",
			"Admit", "Congested", "Outcome", "Injected", "Ejected",
			"BeginStep", "ReadBase", "WriteBase", "Depart", "Arrive",
			"Queued", "EjectHandle",
		},
		"internal/noc/bless/bless.go": {
			"Step", "stepRouter", "divert", "reinjectSide", "inject",
			"productive", "leastLoaded", "toward", "collect", "sortAge",
		},
		"internal/noc/buffered/buffered.go": {
			"Step", "stepRouter", "routeLocal", "localFront",
			"localPop", "allocVCs", "localReady", "traverseDir",
			"traverseLocal",
		},
		"internal/noc/hierring/hierring.go": {
			"Step", "localPhase", "nodeStop", "bridgeLocal", "bridgeGlobal",
			"groupWants", "push", "pop",
		},
	}
}

// DefaultAllow is the sanctioned baseline: every entry is message
// formatting on a panic path, where the process is ending anyway.
func DefaultAllow() []Allow {
	return []Allow{
		{"internal/noc/nic.go", "Send", `"noc: packet length out of range`},
		{"internal/noc/bless/bless.go", "divert", `fmt.Sprintf("bless: no free port at node`},
		{"internal/noc/bless/bless.go", "divert", "node escapes to heap"},
		{"internal/noc/bless/bless.go", "divert", "dst escapes to heap"},
		{"internal/noc/buffered/buffered.go", "stepRouter", `fmt.Sprintf("buffered: input buffer overflow`},
		{"internal/noc/buffered/buffered.go", "stepRouter", "node escapes to heap"},
		{"internal/noc/buffered/buffered.go", "stepRouter", "d escapes to heap"},
		{"internal/noc/buffered/buffered.go", "stepRouter", "f.Mesh.Hot[h].VC escapes to heap"},
	}
}

// An Index maps file:line positions to enclosing function declarations,
// parsing each file lazily.
type Index struct {
	root  string
	fset  *token.FileSet
	files map[string][]span
}

type span struct {
	name       string
	start, end int
}

// NewIndex builds an index rooted at the module directory diagnostics
// are relative to.
func NewIndex(root string) *Index {
	return &Index{root: root, fset: token.NewFileSet(), files: map[string][]span{}}
}

// FuncAt returns the name of the function declaration enclosing
// file:line, or "" when the position is outside every declaration or
// the file cannot be parsed.
func (ix *Index) FuncAt(file string, line int) string {
	spans, ok := ix.files[file]
	if !ok {
		spans = ix.load(file)
		ix.files[file] = spans
	}
	for _, s := range spans {
		if line >= s.start && line <= s.end {
			return s.name
		}
	}
	return ""
}

func (ix *Index) load(file string) []span {
	af, err := parser.ParseFile(ix.fset, filepath.Join(ix.root, filepath.FromSlash(file)), nil, parser.SkipObjectResolution)
	if err != nil {
		return nil
	}
	var spans []span
	for _, d := range af.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		spans = append(spans, span{
			name:  fd.Name.Name,
			start: ix.fset.Position(fd.Pos()).Line,
			end:   ix.fset.Position(fd.End()).Line,
		})
	}
	return spans
}

// A Finding is a watched escape not covered by the baseline.
type Finding struct {
	Diag
	Func string `json:"func"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: new heap escape in hot function %s: %s", f.File, f.Line, f.Col, f.Func, f.Msg)
}

// Check filters diags down to the escapes inside watched functions that
// no baseline entry sanctions. root anchors the source files the
// diagnostics refer to.
func Check(root string, diags []Diag, w Watch, allow []Allow) []Finding {
	ix := NewIndex(root)
	var out []Finding
	for _, d := range diags {
		funcs, ok := w[d.File]
		if !ok {
			continue
		}
		fn := ix.FuncAt(d.File, d.Line)
		if fn == "" || !contains(funcs, fn) {
			continue
		}
		if allowed(allow, d, fn) {
			continue
		}
		out = append(out, Finding{Diag: d, Func: fn})
	}
	return out
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

func allowed(allow []Allow, d Diag, fn string) bool {
	for _, a := range allow {
		if a.File == d.File && a.Func == fn && strings.HasPrefix(d.Msg, a.Match) {
			return true
		}
	}
	return false
}
