package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// hotallocNocRoots names the per-cycle entry points of package
// internal/noc itself, which has no Step method: every NIC and FlitPool
// method a fabric calls on each cycle's hot path.
var hotallocNocRoots = map[string]bool{
	"Send": true, "Receive": true, "Alloc": true, "Free": true, "Get": true,
	"Head": true, "Pop": true, "HeadRequest": true, "HeadReply": true,
	"PopRequest": true, "PopReply": true,
}

// hotallocAllow names the sanctioned growth points: functions that run
// in the sequential prelude of Step and exist precisely to move
// allocation off the per-node hot loop. They are neither traversed nor
// checked.
var hotallocAllow = map[string]bool{"Reserve": true}

// HotAlloc forbids heap-allocating constructs in any function reachable
// from a fabric Step method or the per-cycle NIC/pool entry points of
// internal/noc. The zero-steady-state-allocs property is what keeps
// cycle cost flat at 64x64+ and the GC out of the measurement loop;
// this rule catches a reintroduced allocation at review time instead of
// as an opaque allocs-per-cycle bump.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "no heap-allocating constructs reachable from Step/per-cycle functions in internal/noc/...",
	Explain: `The simulator's hot path — everything reachable from a fabric's Step
method or from the per-cycle NIC/FlitPool entry points of internal/noc
— must not allocate in steady state (TestZeroSteadyStateAllocs pins
this at runtime; hotalloc pins it at review time).

Flagged constructs: make, append (the backing array may grow), new,
slice/map composite literals, &composite literals (escape by
construction), closure literals (the closure header allocates), and
arguments boxed into interface parameters or converted to interface
types.

Exemptions: test files; the sequential Reserve growth point (the one
sanctioned place the pool grows, by design); and anything inside a
panic(...) call — a path that ends the process may format its message.

Waive with //nocvet:allow hotalloc only at documented grow-to-peak
points (NIC queue doubling, free-list push with capacity pre-reserved),
where the allocation provably stops once the structure reaches its
high-water mark.`,
	Run: func(pass *Pass) {
		if pass.Info == nil || !underSeg(pass.Rel(), "internal/noc") {
			return
		}
		decls := collectFuncs(pass)
		var roots []*types.Func
		for _, d := range sortedDecls(decls) {
			if d.fn.Name() == "Step" ||
				(pass.Rel() == "internal/noc" && d.decl.Recv != nil && hotallocNocRoots[d.fn.Name()]) {
				roots = append(roots, d.fn)
			}
		}
		hot := reachableFrom(pass.Info, decls, roots, func(fn *types.Func) bool {
			return hotallocAllow[fn.Name()]
		})
		for _, d := range sortedDecls(decls) {
			if hot[d.fn] {
				checkHotBody(pass, d.file, d.fn.Name(), d.decl.Body)
			}
		}
	},
}

// checkHotBody reports every allocating construct in one hot function
// body, skipping panic-call subtrees and the interiors of flagged
// closures.
func checkHotBody(pass *Pass, file *File, fname string, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(file, n.Pos(),
				"closure literal in hot function %s allocates; hoist it to construction time", fname)
			return false
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := pass.Info.Uses[id].(*types.Builtin); ok {
					switch b.Name() {
					case "panic":
						return false // fatal path: message formatting is exempt
					case "make":
						pass.Reportf(file, n.Pos(),
							"make allocates in hot function %s; growth belongs in the sequential Reserve point", fname)
					case "append":
						pass.Reportf(file, n.Pos(),
							"append in hot function %s may grow the backing array; growth belongs in the sequential Reserve point", fname)
					case "new":
						pass.Reportf(file, n.Pos(), "new allocates in hot function %s", fname)
					}
					return true
				}
			}
			checkBoxing(pass, file, fname, n)
		case *ast.CompositeLit:
			t := pass.Info.TypeOf(n)
			if t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					pass.Reportf(file, n.Pos(),
						"composite %s literal allocates in hot function %s", t.String(), fname)
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					pass.Reportf(file, n.Pos(),
						"&composite literal escapes to the heap in hot function %s", fname)
					return false
				}
			}
		}
		return true
	})
}

// checkBoxing flags call arguments that box a concrete value into an
// interface parameter, and conversions to interface types.
func checkBoxing(pass *Pass, file *File, fname string, call *ast.CallExpr) {
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion: T(x) with T an interface boxes x.
		if types.IsInterface(tv.Type) && len(call.Args) == 1 {
			at := pass.Info.TypeOf(call.Args[0])
			if at != nil && !types.IsInterface(at) && !isUntypedNil(at) {
				pass.Reportf(file, call.Pos(),
					"conversion to interface %s boxes its operand in hot function %s", tv.Type.String(), fname)
			}
		}
		return
	}
	sig, ok := pass.Info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && call.Ellipsis == token.NoPos && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at := pass.Info.TypeOf(arg)
		if at == nil || types.IsInterface(at) || isUntypedNil(at) {
			continue
		}
		pass.Reportf(file, arg.Pos(),
			"argument boxes into an interface parameter in hot function %s", fname)
	}
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}
