package lint

import (
	"go/ast"
	"go/types"
)

// CtxLoop inspects goroutine-spawning loops — the shape of every
// worker pool in internal/core, internal/stats and internal/figures —
// in functions that receive a context.Context. It flags a spawned
// goroutine that never consults that context (no ctx use, so no
// cancellation path): under sharded campaigns a cancelled job must not
// keep burning cores.
//
// A goroutine that captures the loop variable is not flagged: go.mod
// declares go 1.22, so every range and for clause declares its
// variables per iteration and no two goroutines can share one.
type CtxLoop struct{}

// NewCtxLoop returns the rule.
func NewCtxLoop() *CtxLoop { return &CtxLoop{} }

// ID implements Rule.
func (*CtxLoop) ID() string { return "ctxloop" }

// Doc implements Rule.
func (*CtxLoop) Doc() string {
	return "flags goroutines spawned in a loop that ignore the enclosing ctx parameter"
}

// Check implements Rule.
func (r *CtxLoop) Check(pass *Pass) []Diagnostic {
	var out []Diagnostic
	walkFuncs(pass, func(_ string, ftype *ast.FuncType, body *ast.BlockStmt) {
		ctxObjs := contextParams(pass, ftype)
		if len(ctxObjs) == 0 {
			return
		}
		ast.Inspect(body, func(n ast.Node) bool {
			var loopBody *ast.BlockStmt
			switch loop := n.(type) {
			case *ast.RangeStmt:
				loopBody = loop.Body
			case *ast.ForStmt:
				loopBody = loop.Body
			default:
				return true
			}
			ast.Inspect(loopBody, func(m ast.Node) bool {
				gs, ok := m.(*ast.GoStmt)
				if !ok {
					return true
				}
				lit, ok := gs.Call.Fun.(*ast.FuncLit)
				if !ok {
					return true // go f(args): f's body is out of view
				}
				if !usesAnyObject(pass, lit.Body, ctxObjs) && !usesAnyObject(pass, gs.Call, ctxObjs) {
					out = append(out, pass.Diag(r, gs.Pos(),
						"goroutine spawned in a loop never consults the enclosing function's context.Context; it cannot be cancelled"))
				}
				return true
			})
			return false // the walk above covered every loop nested in this one
		})
	})
	return out
}

// contextParams collects the context.Context-typed parameter objects
// of a function signature.
func contextParams(pass *Pass, ftype *ast.FuncType) map[types.Object]bool {
	objs := map[types.Object]bool{}
	if ftype == nil || ftype.Params == nil {
		return objs
	}
	for _, field := range ftype.Params.List {
		t := pass.TypeOf(field.Type)
		if t == nil || !isContextType(t) {
			continue
		}
		for _, name := range field.Names {
			if obj := pass.Info.Defs[name]; obj != nil {
				objs[obj] = true
			}
		}
	}
	return objs
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
