// Package lint implements positlint, a domain-aware static analyzer
// for this repository. The paper's conclusions rest on bit-exact posit
// encode/decode and on campaign statistics produced by heavily
// concurrent worker pools; lint mechanically enforces the invariants
// that substrate depends on (no raw float equality in analysis code,
// no out-of-range shifts in bit manipulation, no unchecked NaR on
// error-metric paths, no lock copies or racy WaitGroup use, no leaky
// goroutine loops, no silently dropped errors, no quire accumulation
// without an overflow/NaR check, no error-code drift).
//
// The engine runs in two passes. Pass 1 (facts.go) builds a repo-wide
// fact index — error-code constants and call-graph edges into quire
// accumulation APIs — so pass 2's rules can enforce invariants that
// span declarations and packages. Pass 2 runs the rules over each
// package in turn.
//
// The analyzer is built only on the standard library (go/parser,
// go/ast, go/token, go/types, go/importer) — the module has zero
// external dependencies and must stay that way. See docs/LINT.md for
// the rule catalogue and suppression workflow.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position, the rule that fired, and a
// human-readable message. Filename is stored relative to the module
// root (or the load directory for ad-hoc loads) so output and
// suppression matching are machine-independent.
type Diagnostic struct {
	Pos     token.Position `json:"pos"`     // finding location, Filename module-relative
	RuleID  string         `json:"rule"`    // stable rule identifier, e.g. "floatcmp"
	Message string         `json:"message"` // human-readable explanation
	// Fix, when non-nil, is a mechanical edit that resolves the
	// diagnostic (applied by `positlint -fix`; see fix.go).
	Fix *SuggestedFix `json:"fix,omitempty"`
}

// String renders the diagnostic in the canonical
// "file:line:col: [rule] message" form consumed by editors and CI.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s",
		d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.RuleID, d.Message)
}

// Rule is one lint check, run once per package.
type Rule interface {
	// ID is the stable rule identifier used in output, suppression
	// files and //positlint:ignore comments.
	ID() string
	// Doc is a one-line description shown by `positlint -list`.
	Doc() string
	// Check inspects one type-checked package and returns findings.
	Check(pass *Pass) []Diagnostic
}

// Pass hands one type-checked package to a rule.
type Pass struct {
	Fset  *token.FileSet // positions for every file of the package
	Path  string         // import path (or directory for ad-hoc loads)
	Pkg   *types.Package // type-checked package object
	Info  *types.Info    // types, uses and defs of every expression
	Files []*ast.File    // parsed non-test files
	// Facts is the repo-wide fact index built over every package of
	// the run (pass 1), letting rules see across package boundaries.
	// Never nil when invoked through Runner.Run.
	Facts *FactIndex

	rel func(token.Position) token.Position
}

// Diag builds a Diagnostic for the rule at pos.
func (p *Pass) Diag(rule Rule, pos token.Pos, format string, args ...interface{}) Diagnostic {
	position := p.Fset.Position(pos)
	if p.rel != nil {
		position = p.rel(position)
	}
	return Diagnostic{Pos: position, RuleID: rule.ID(), Message: fmt.Sprintf(format, args...)}
}

// TypeOf returns the type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// AllRules returns the default rule set in stable order.
func AllRules() []Rule {
	return []Rule{
		NewFloatCmp(),
		NewShiftRange(),
		NewNaRCheck(),
		NewMutexCopy(),
		NewWaitGroup(),
		NewCtxLoop(),
		NewErrDrop(),
		NewAtomicWrite(),
		NewPkgDoc(),
		NewExportDoc(),
		NewQuireGuard(),
		NewBudgetScale(),
		NewErrCode(),
	}
}

// RuleByID resolves a rule identifier against AllRules.
func RuleByID(id string) (Rule, bool) {
	for _, r := range AllRules() {
		if r.ID() == id {
			return r, true
		}
	}
	return nil, false
}

// ignoreRx matches inline suppression comments:
//
//	//positlint:ignore <rule>[,<rule>...] <reason>
//
// placed on the flagged line or on the line directly above it. The
// reason is mandatory; an ignore without one is itself reported.
var ignoreRx = regexp.MustCompile(`^//positlint:ignore\s+([\w*,-]+)(\s+\S.*)?$`)

// Runner executes a rule set over packages and filters suppressions.
type Runner struct {
	Rules    []Rule        // rules to execute, in report order
	Suppress *Suppressions // optional file-based suppressions
}

// Run lints every package and returns the diagnostics that no inline
// directive and no file-based suppression covers, sorted by file,
// line, column, rule.
func (r *Runner) Run(pkgs []*Package) []Diagnostic {
	raw, directives, bad := analyze(pkgs, r.Rules)
	var out []Diagnostic
	for _, d := range raw {
		if !ignored(directives, d) && !r.Suppress.Match(d) {
			out = append(out, d)
		}
	}
	// No inline directive waives a malformed directive; a
	// suppression-file entry can.
	for _, d := range bad {
		if !r.Suppress.Match(d) {
			out = append(out, d)
		}
	}
	sortDiagnostics(out)
	return out
}

// analyze is the engine pass Run and FindStale share: it builds the
// fact index over every package (pass 1), then runs each rule over
// each package in turn (pass 2). It returns the raw diagnostics,
// before any suppression, the well-formed inline directives, and a
// finding for each malformed one.
func analyze(pkgs []*Package, rules []Rule) (raw []Diagnostic, directives []ignoreEntry, bad []Diagnostic) {
	facts := BuildFacts(pkgs)
	for _, pkg := range pkgs {
		pass := pkg.pass()
		pass.Facts = facts
		entries, malformed := inlineIgnores(pass)
		directives = append(directives, entries...)
		bad = append(bad, malformed...)
		for _, rule := range rules {
			raw = append(raw, rule.Check(pass)...)
		}
	}
	return raw, directives, bad
}

// ignored reports whether any inline directive covers d.
func ignored(directives []ignoreEntry, d Diagnostic) bool {
	for _, e := range directives {
		if e.matches(d) {
			return true
		}
	}
	return false
}

// sortDiagnostics orders by file, line, column, rule. The sort is
// stable so that a rule emitting several diagnostics at one position
// keeps its own emission order.
func sortDiagnostics(out []Diagnostic) {
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.RuleID < b.RuleID
	})
}

// ignoreEntry is one well-formed //positlint:ignore directive: where
// it sits and which rules it waives.
type ignoreEntry struct {
	pos   token.Position // directive position, module-relative
	rules []string       // rule IDs ("*" = all)
}

// matches reports whether the directive covers d: same file, on the
// flagged line or the line directly above it, rule listed or "*".
func (e ignoreEntry) matches(d Diagnostic) bool {
	if e.pos.Filename != d.Pos.Filename {
		return false
	}
	if e.pos.Line != d.Pos.Line && e.pos.Line != d.Pos.Line-1 {
		return false
	}
	for _, id := range e.rules {
		if id == "*" || id == d.RuleID {
			return true
		}
	}
	return false
}

// inlineIgnores collects //positlint:ignore comments from a package.
// Malformed ignores (no reason given) are returned as diagnostics so
// suppressions stay self-documenting.
func inlineIgnores(pass *Pass) ([]ignoreEntry, []Diagnostic) {
	var entries []ignoreEntry
	var bad []Diagnostic
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRx.FindStringSubmatch(c.Text)
				if m == nil {
					if strings.HasPrefix(c.Text, "//positlint:") {
						bad = append(bad, pass.Diag(malformedIgnore{}, c.Pos(),
							"malformed positlint directive %q (want //positlint:ignore <rule> <reason>)", c.Text))
					}
					continue
				}
				if strings.TrimSpace(m[2]) == "" {
					bad = append(bad, pass.Diag(malformedIgnore{}, c.Pos(),
						"//positlint:ignore needs a reason after the rule list"))
					continue
				}
				pos := pass.Fset.Position(c.Pos())
				if pass.rel != nil {
					pos = pass.rel(pos)
				}
				entries = append(entries, ignoreEntry{pos: pos, rules: strings.Split(m[1], ",")})
			}
		}
	}
	return entries, bad
}

// malformedIgnore is the pseudo-rule behind directive hygiene
// diagnostics; it never appears in AllRules.
type malformedIgnore struct{}

func (malformedIgnore) ID() string               { return "ignoredirective" }
func (malformedIgnore) Doc() string              { return "malformed //positlint:ignore directive" }
func (malformedIgnore) Check(*Pass) []Diagnostic { return nil }
