package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// This file is the lightweight per-function control-flow/dataflow layer
// shared by the hot-path rules (hotalloc, handleleak): function
// collection, an intra-package static call graph with reachability, and
// an ancestor-tracking AST walk.

// nocPkgPath is the import path of the flit/NIC core package whose
// types (FlitPool, Handle) the hot-path rules key on.
const nocPkgPath = modulePath + "/internal/noc"

// A declOf pairs a declared function with its file and type object.
type declOf struct {
	fn   *types.Func
	decl *ast.FuncDecl
	file *File
}

// collectFuncs indexes every function declared in the pass's non-test
// files by its *types.Func object. Callers must have checked that
// pass.Info is non-nil.
func collectFuncs(pass *Pass) map[*types.Func]*declOf {
	out := map[*types.Func]*declOf{}
	for _, f := range pass.Files {
		if f.Test {
			continue
		}
		for _, d := range f.AST.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.Info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			out[obj] = &declOf{fn: obj, decl: fd, file: f}
		}
	}
	return out
}

// sortedDecls returns the declared functions of decls in source order,
// so rules that iterate the set report deterministically.
func sortedDecls(decls map[*types.Func]*declOf) []*declOf {
	out := make([]*declOf, 0, len(decls))
	for _, d := range decls {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].decl.Pos() < out[j].decl.Pos() })
	return out
}

// calleeOf resolves the static callee of call, or nil for dynamic
// calls, builtins, and conversions.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// staticCallees lists the declared functions node statically calls.
func staticCallees(info *types.Info, node ast.Node) []*types.Func {
	var out []*types.Func
	ast.Inspect(node, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := calleeOf(info, call); fn != nil {
				out = append(out, fn)
			}
		}
		return true
	})
	return out
}

// reachableFrom walks the intra-package static call graph from roots
// and returns every declared function reachable from them (roots
// included). Functions for which stop returns true are neither
// traversed nor included: they are sanctioned boundaries.
func reachableFrom(info *types.Info, decls map[*types.Func]*declOf, roots []*types.Func, stop func(*types.Func) bool) map[*types.Func]bool {
	seen := map[*types.Func]bool{}
	queue := append([]*types.Func(nil), roots...)
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		if seen[fn] || (stop != nil && stop(fn)) {
			continue
		}
		d := decls[fn]
		if d == nil {
			continue // cross-package or interface method: out of unit
		}
		seen[fn] = true
		queue = append(queue, staticCallees(info, d.decl.Body)...)
	}
	return seen
}

// inspectStack walks root like ast.Inspect while maintaining the
// ancestor stack passed to fn (outermost first, excluding n itself).
// Returning false from fn skips n's children.
func inspectStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// isNamed reports whether t (or its pointer element) is the named type
// pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// objOf resolves an identifier to its object through either the use or
// the definition map.
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// isBuiltin reports whether the call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// isPanicCall reports whether e is a call to the builtin panic. Used to
// exempt fatal paths: allocation and boxing on a path that ends the
// process are irrelevant to steady-state behavior.
func isPanicCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	return ok && isBuiltin(info, call, "panic")
}
