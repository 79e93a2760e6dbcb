package lint

// Pass 1 of the analyzer: the repo-wide fact index. Rules that enforce
// cross-declaration invariants (an error code missing from the stable
// registry, quire accumulation hidden behind a helper in another
// package) cannot see what they need from a single-file AST walk.
// BuildFacts runs once over every loaded package and records the
// module-level facts; pass 2 hands the index to every rule through
// Pass.Facts.
//
// The index is deliberately small and declarative — error-code
// constants and call-graph edges into quire accumulation APIs.

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"sort"
)

// ErrorCodeFact records one stable error-code constant: a string
// constant whose name matches ^[Cc]ode[A-Z0-9_] (serve's unexported
// code* aliases and spec's exported Code* canonicals both match).
type ErrorCodeFact struct {
	Pkg   string `json:"pkg"`   // declaring package
	Name  string `json:"name"`  // constant name
	Value string `json:"value"` // the code string itself
}

// QuireAccumFact records that a function accumulates into a
// quire-typed parameter: the call-graph edge the quireguard rule
// follows across package boundaries. Param indices are 0-based over
// the declared (non-receiver) parameters.
type QuireAccumFact struct {
	Func   string `json:"func"`   // types.Func.FullName of the accumulating function
	Params []int  `json:"params"` // parameter indices accumulated into, sorted
}

// FactIndex is the repo-wide fact store built by pass 1.
type FactIndex struct {
	// ErrorCodes maps code string values to their declaring constants.
	// A value declared by several constants (serve aliasing spec) keeps
	// every declaration.
	ErrorCodes map[string][]ErrorCodeFact
	// QuireAccum maps function full names to the quire parameter
	// indices they accumulate into.
	QuireAccum map[string]*QuireAccumFact
}

// errorCodeNameRx matches the error-code constant naming convention.
var errorCodeNameRx = regexp.MustCompile(`^[Cc]ode[A-Z0-9_]`)

// quireAccumMethods are the accumulation entry points of the quire
// API (internal/posit.Quire and any fixture type of the same shape).
var quireAccumMethods = map[string]bool{
	"AddPosit": true, "SubPosit": true, "AddProduct": true, "SubProduct": true,
}

// BuildFacts runs pass 1 over the given packages and returns the
// index. It is pure analysis — no diagnostics are produced here.
func BuildFacts(pkgs []*Package) *FactIndex {
	idx := &FactIndex{
		ErrorCodes: map[string][]ErrorCodeFact{},
		QuireAccum: map[string]*QuireAccumFact{},
	}
	for _, pkg := range pkgs {
		pass := pkg.pass()
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.GenDecl:
					idx.collectErrorCodes(pass, d)
				case *ast.FuncDecl:
					idx.collectQuireAccum(pass, d)
				}
			}
		}
	}
	return idx
}

// collectErrorCodes records the string constants of a declaration
// whose names follow the error-code convention.
func (idx *FactIndex) collectErrorCodes(pass *Pass, d *ast.GenDecl) {
	if d.Tok != token.CONST {
		return
	}
	for _, sp := range d.Specs {
		vs, ok := sp.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, name := range vs.Names {
			if !errorCodeNameRx.MatchString(name.Name) {
				continue
			}
			obj, ok := pass.Info.Defs[name].(*types.Const)
			if !ok || obj.Val().Kind() != constant.String {
				continue
			}
			val := constant.StringVal(obj.Val())
			idx.ErrorCodes[val] = append(idx.ErrorCodes[val],
				ErrorCodeFact{Pkg: pass.Path, Name: name.Name, Value: val})
		}
	}
}

// collectQuireAccum records functions that call a quire accumulation
// method on one of their own parameters — helpers the quireguard rule
// must treat as accumulation sites at every call site, in any package.
func (idx *FactIndex) collectQuireAccum(pass *Pass, d *ast.FuncDecl) {
	if d.Body == nil || d.Type.Params == nil {
		return
	}
	params := map[types.Object]int{}
	i := 0
	for _, field := range d.Type.Params.List {
		for _, name := range field.Names {
			if obj := pass.Info.Defs[name]; obj != nil && isQuireType(obj.Type()) {
				params[obj] = i
			}
			i++
		}
		if len(field.Names) == 0 {
			i++
		}
	}
	if len(params) == 0 {
		return
	}
	accum := map[int]bool{}
	ast.Inspect(d.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !quireAccumMethods[sel.Sel.Name] {
			return true
		}
		if obj := rootIdentObject(pass, sel.X); obj != nil {
			if pi, ok := params[obj]; ok {
				accum[pi] = true
			}
		}
		return true
	})
	if len(accum) == 0 {
		return
	}
	fn, ok := pass.Info.Defs[d.Name].(*types.Func)
	if !ok {
		return
	}
	fact := &QuireAccumFact{Func: fn.FullName()}
	for pi := range accum {
		fact.Params = append(fact.Params, pi)
	}
	sort.Ints(fact.Params)
	idx.QuireAccum[fact.Func] = fact
}

// HasErrorCode reports whether value is a registered stable code.
func (idx *FactIndex) HasErrorCode(value string) bool {
	_, ok := idx.ErrorCodes[value]
	return ok
}

// isQuireType reports whether t (after pointer deref) is a named type
// called Quire — the domain convention the quire rules key on, so the
// analyzer recognises internal/posit.Quire and fixture doubles alike.
func isQuireType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "Quire"
}

// rootIdentObject resolves the base identifier of an expression chain
// (q, q.field, (*q)) to its variable object, or nil.
func rootIdentObject(pass *Pass, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := pass.Info.Uses[x]; obj != nil {
				return obj
			}
			return pass.Info.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return nil
		}
	}
}
