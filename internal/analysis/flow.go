package analysis

import (
	"go/ast"
	"go/types"
)

// This file holds the AST and type helpers of the handle-ownership rule
// (handleleak): an ancestor-tracking AST walk and named-type, object
// and builtin lookups.

// nocPkgPath is the import path of the flit/NIC core package whose
// types (FlitPool, Handle) handleleak keys on.
const nocPkgPath = modulePath + "/internal/noc"

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
