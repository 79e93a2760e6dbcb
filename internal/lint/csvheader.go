package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// CSVHeader keeps string-list schema registries and the structs they
// mirror from drifting apart. The repo's wire formats are deliberate
// plain CSV/JSON with a hand-maintained header registry next to the
// struct they serialize — core.trialHeader names the fifteen columns
// of core.Trial, and every encode/decode path is expected to touch
// every field. Nothing in the language ties the three together: add a
// field to Trial and forget the header (or the encoder), and campaign
// archives silently lose a column while old readers keep "working" on
// shifted data.
//
// The rule keys on the naming convention `<x>Header` → struct `<X>`
// (trialHeader → Trial), resolved through the fact index so the
// registry and the struct may live in different packages. A
// `<x>WireHeader` registry with no `<X>Wire` struct falls back to
// `<X>` (trialWireHeader → Trial), so a binary encoder's own copy of
// a column registry must mirror the same struct. The rule fires when:
//
//   - the registry length differs from the struct's named field count
//     (a field was added or removed without updating the header);
//   - a function references both the registry and at least one field
//     of the struct — the shape of every encoder and decoder — but
//     does not reference ALL of the struct's fields. A positional
//     composite literal of the struct counts as referencing every
//     field (the compiler already enforces arity there);
//   - two registries anywhere in the repo mirror the same struct but
//     disagree elementwise (a trialHeader vs a trialWireHeader) — a
//     CSV rendering and a binary encoding would then order or name
//     columns differently, which no per-registry check can see.
//
// Functions that reference the struct without the header (business
// logic) or the header without fields (writing the header row) are
// out of scope: only code that claims to map between the two is held
// to completeness.
type CSVHeader struct{}

// NewCSVHeader returns the rule.
func NewCSVHeader() *CSVHeader { return &CSVHeader{} }

// ID implements Rule.
func (*CSVHeader) ID() string { return "csvheader" }

// Doc implements Rule.
func (*CSVHeader) Doc() string {
	return "flags <x>Header registries, encode/decode paths and sibling registries that drift from the struct they serialize"
}

// headerStructCandidates maps a registry variable name to the struct
// names it may mirror, most specific first: trialHeader -> [Trial],
// trialWireHeader -> [TrialWire, Trial]. The Wire fallback is what
// lets a binary encoder's column registry bind to the same struct as
// the CSV one. Nil when the name does not follow the convention.
func headerStructCandidates(varName string) []string {
	base, ok := strings.CutSuffix(varName, "Header")
	if !ok || base == "" {
		return nil
	}
	cands := []string{strings.ToUpper(base[:1]) + base[1:]}
	if trimmed, ok := strings.CutSuffix(base, "Wire"); ok && trimmed != "" {
		cands = append(cands, strings.ToUpper(trimmed[:1])+trimmed[1:])
	}
	return cands
}

// resolveStruct binds a registry fact to the struct it mirrors, trying
// each naming candidate through the fact index. Nil when no candidate
// names a struct anywhere — then the variable is not a schema registry.
func resolveStruct(facts *FactIndex, fact *StringListFact) *StructFact {
	for _, name := range headerStructCandidates(fact.Name) {
		if sf := facts.StructIn(fact.Pkg, name); sf != nil {
			return sf
		}
	}
	return nil
}

// Check implements Rule.
func (r *CSVHeader) Check(pass *Pass) []Diagnostic {
	if pass.Facts == nil {
		return nil
	}
	var out []Diagnostic
	for _, fact := range pass.Facts.StringLists {
		if fact.Pkg != pass.Path {
			continue // diagnostics are anchored in the declaring package
		}
		sf := resolveStruct(pass.Facts, fact)
		if sf == nil {
			continue // no struct of that name anywhere: not a schema registry
		}
		if len(fact.Elems) != len(sf.Fields) {
			out = append(out, pass.Diag(r, fact.pos,
				"%s has %d columns but %s has %d fields; header and struct must stay in lockstep",
				fact.Name, len(fact.Elems), sf.Name, len(sf.Fields)))
		}
		out = append(out, r.checkSiblings(pass, fact, sf)...)
		out = append(out, r.checkMappers(pass, fact, sf)...)
	}
	return out
}

// checkSiblings compares fact against every other registry in the
// repo that mirrors the same struct: a CSV header and a block header
// serializing one struct must agree column for column, or the two
// encodings of the same data diverge. Each unordered pair is reported
// once, anchored at the registry with the greater "pkg.name" key.
func (r *CSVHeader) checkSiblings(pass *Pass, fact *StringListFact, sf *StructFact) []Diagnostic {
	var out []Diagnostic
	key := fact.Pkg + "." + fact.Name
	var okeys []string
	for okey := range pass.Facts.StringLists {
		okeys = append(okeys, okey)
	}
	sort.Strings(okeys) // deterministic diagnostic order
	for _, okey := range okeys {
		if okey >= key {
			continue
		}
		other := pass.Facts.StringLists[okey]
		osf := resolveStruct(pass.Facts, other)
		if osf == nil || osf.Pkg != sf.Pkg || osf.Name != sf.Name {
			continue
		}
		n := len(fact.Elems)
		if len(other.Elems) < n {
			n = len(other.Elems)
		}
		diff := -1
		for i := 0; i < n; i++ {
			if fact.Elems[i] != other.Elems[i] {
				diff = i
				break
			}
		}
		switch {
		case diff >= 0:
			out = append(out, pass.Diag(r, fact.pos,
				"%s and %s both mirror %s but disagree at column %d: %q vs %q; sibling registries must agree elementwise",
				fact.Name, okey, sf.Name, diff, fact.Elems[diff], other.Elems[diff]))
		case len(fact.Elems) != len(other.Elems):
			out = append(out, pass.Diag(r, fact.pos,
				"%s has %d columns but sibling registry %s has %d; registries mirroring %s must agree elementwise",
				fact.Name, len(fact.Elems), okey, len(other.Elems), sf.Name))
		}
	}
	return out
}

// checkMappers flags functions that reference both the header registry
// and a strict subset of the struct's fields.
func (r *CSVHeader) checkMappers(pass *Pass, fact *StringListFact, sf *StructFact) []Diagnostic {
	// Resolve the registry variable object by declaration position so
	// shadowing locals of the same name cannot confuse the match.
	var headerObj types.Object
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Pos() == fact.pos {
				headerObj = pass.Info.Defs[id]
				return false
			}
			return true
		})
		if headerObj != nil {
			break
		}
	}
	if headerObj == nil {
		return nil
	}

	var out []Diagnostic
	walkFuncs(pass, func(name string, _ *ast.FuncType, body *ast.BlockStmt) {
		var headerUse ast.Node
		fields := map[string]bool{}
		all := false
		ast.Inspect(body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.Ident:
				if headerUse == nil && pass.Info.Uses[x] == headerObj {
					headerUse = x
				}
			case *ast.SelectorExpr:
				if sel, ok := pass.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
					if isNamedStruct(sel.Recv(), sf.Name) {
						fields[x.Sel.Name] = true
					}
				}
			case *ast.CompositeLit:
				if t := pass.TypeOf(x); t != nil && isNamedStruct(t, sf.Name) {
					keyed := false
					for _, el := range x.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							keyed = true
							if id, ok := kv.Key.(*ast.Ident); ok {
								fields[id.Name] = true
							}
						}
					}
					if !keyed && len(x.Elts) == len(sf.Fields) {
						all = true // positional literal: compiler enforces arity
					}
				}
			}
			return true
		})
		if headerUse == nil || all || len(fields) == 0 {
			return
		}
		var missing []string
		for _, f := range sf.Fields {
			if !fields[f.Name] {
				missing = append(missing, f.Name)
			}
		}
		if len(missing) == 0 {
			return
		}
		sort.Strings(missing)
		out = append(out, pass.Diag(r, headerUse.Pos(),
			"%s maps %s to %s but never touches field(s) %s; encode/decode paths must cover every field",
			name, fact.Name, sf.Name, strings.Join(missing, ", ")))
	})
	return out
}

// isNamedStruct reports whether t (after pointer deref) is the named
// struct type called name.
func isNamedStruct(t types.Type, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Name() != name {
		return false
	}
	_, isStruct := n.Underlying().(*types.Struct)
	return isStruct
}
