package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// walkFuncs visits every function body in the package, handing the
// visitor the enclosing declaration (FuncDecl or FuncLit at top level
// of a var initializer) so rules can reason per-function.
func walkFuncs(pass *Pass, fn func(name string, ftype *ast.FuncType, body *ast.BlockStmt)) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch d := n.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					fn(d.Name.Name, d.Type, d.Body)
				}
				return false // nested FuncLits are part of this body
			case *ast.FuncLit:
				fn("func literal", d.Type, d.Body)
				return false
			}
			return true
		})
	}
}

// isFloat reports whether t's underlying type is a floating-point
// basic type (float32, float64, or an untyped float constant).
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isSignedInt reports whether t's underlying type is a signed
// integer.
func isSignedInt(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0 && b.Info()&types.IsUnsigned == 0
}

// intWidth returns the bit width of an integer type (64 for int,
// uint and uintptr on every platform this repo targets), or 0 when t
// is not a basic integer.
func intWidth(t types.Type) int {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return 0
	}
	switch b.Kind() {
	case types.Int8, types.Uint8:
		return 8
	case types.Int16, types.Uint16:
		return 16
	case types.Int32, types.Uint32:
		return 32
	case types.Int64, types.Uint64, types.Int, types.Uint, types.Uintptr, types.UntypedInt:
		return 64
	}
	return 0
}

// constIntVal returns the exact integer value of e when the
// type-checker folded it to a constant.
func constIntVal(pass *Pass, e ast.Expr) (int64, bool) {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	v, exact := constant.Int64Val(tv.Value)
	if !exact {
		// Out of int64 range: certainly huge, report as huge.
		return 1 << 62, true
	}
	return v, true
}

// isConstZero reports whether e folded to the exact constant 0 (of
// any numeric flavour).
func isConstZero(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	switch tv.Value.Kind() {
	case constant.Int, constant.Float:
		return constant.Sign(tv.Value) == 0
	}
	return false
}

// rootObjects collects the variable objects referenced by e (its
// identifiers and selector fields), used for guard detection.
func rootObjects(pass *Pass, e ast.Expr) map[types.Object]bool {
	objs := map[types.Object]bool{}
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.Info.Uses[id]; obj != nil {
				if _, isVar := obj.(*types.Var); isVar {
					objs[obj] = true
				}
			}
		}
		return true
	})
	return objs
}

// usesAnyObject reports whether body references any of the objects.
func usesAnyObject(pass *Pass, body ast.Node, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.Info.Uses[id]; obj != nil && objs[obj] {
				found = true
			}
		}
		return true
	})
	return found
}

// calleeFunc resolves a call expression to the *types.Func it
// invokes (function or method), or nil for builtins, conversions and
// function-typed variables.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := pass.Info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := pass.Info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		// Package-qualified call: pkg.Fn.
		if f, ok := pass.Info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// namedSyncType reports whether t is the named sync.X type.
func namedSyncType(t types.Type, name string) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == name
}

// exprString renders an expression for diagnostics.
func exprString(e ast.Expr) string { return types.ExprString(e) }

// isErrorType reports whether t is the predeclared error interface.
func isErrorType(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() == nil && n.Obj().Name() == "error"
}
