// Package lint implements positlint, a domain-aware static analyzer
// for this repository. The paper's conclusions rest on bit-exact posit
// encode/decode and on campaign statistics produced by heavily
// concurrent worker pools; lint mechanically enforces the invariants
// that substrate depends on (no raw float equality in analysis code,
// no out-of-range shifts in bit manipulation, no unchecked NaR on
// error-metric paths, no lock copies or racy WaitGroup use, no leaky
// goroutine loops, no silently dropped errors, no quire accumulation
// without an overflow/NaR check, no CSV-schema or error-code drift).
//
// The engine runs in two passes. Pass 1 (facts.go) builds a repo-wide
// fact index — exported struct field sets, string-literal registries,
// error-code constants, call-graph edges into quire accumulation APIs
// — so pass 2's rules can enforce invariants that span declarations
// and packages. Pass 2 runs the rules per package, in parallel.
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
	"runtime"
	"sort"
	"strings"
	"sync"
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

// IsTestFile reports whether pos lies in a *_test.go file.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

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
		NewCSVHeader(),
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
//
// Run is two-pass: it first builds the repo-wide fact index over every
// package it was handed (so rules see cross-package facts), then lints
// the packages in parallel.
type Runner struct {
	Rules    []Rule        // rules to execute, in report order
	Suppress *Suppressions // optional file-based suppressions
	Jobs     int           // max concurrent packages; <=0 means GOMAXPROCS
}

// Run lints every package and returns the surviving diagnostics
// sorted by file, line, column, rule.
func (r *Runner) Run(pkgs []*Package) []Diagnostic {
	facts := BuildFacts(pkgs)

	// Per-package parallelism: rules are stateless and the typed ASTs
	// are read-only after load, so packages lint independently.
	jobs := r.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	results := make([][]Diagnostic, len(pkgs))
	sem := make(chan struct{}, jobs)
	var wg sync.WaitGroup
	for i := range pkgs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			results[i] = r.lintPackage(pkgs[i], facts)
		}(i)
	}
	wg.Wait()

	// The file-based suppressions apply last, to each package's
	// post-inline-ignore diagnostic set.
	var out []Diagnostic
	for _, diags := range results {
		for _, d := range diags {
			if r.Suppress != nil && r.Suppress.Match(d) {
				continue
			}
			out = append(out, d)
		}
	}
	sortDiagnostics(out)
	return out
}

// lintPackage produces one package's diagnostics (after inline-ignore
// filtering, before file-based suppression).
func (r *Runner) lintPackage(pkg *Package, facts *FactIndex) []Diagnostic {
	pass := pkg.pass()
	pass.Facts = facts
	entries, bad := inlineIgnores(pass)
	ignores := buildIgnoreSet(entries)
	out := append([]Diagnostic(nil), bad...)
	for _, rule := range r.Rules {
		for _, d := range rule.Check(pass) {
			if ignores.match(d) {
				continue
			}
			out = append(out, d)
		}
	}
	sortDiagnostics(out)
	return out
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
// it sits and which rules it waives. Kept as a list (not just the
// line-indexed set) so -prune can ask whether each directive still
// suppresses anything.
type ignoreEntry struct {
	pos   token.Position // directive position, module-relative
	rules []string       // rule IDs ("*" = all)
}

// ignoreSet records inline //positlint:ignore comments per file line.
type ignoreSet map[string]map[int][]string // file -> line -> rule IDs ("*" = all)

func (s ignoreSet) match(d Diagnostic) bool {
	lines := s[d.Pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		for _, id := range lines[line] {
			if id == "*" || id == d.RuleID {
				return true
			}
		}
	}
	return false
}

// buildIgnoreSet indexes directives by file and line for matching.
func buildIgnoreSet(entries []ignoreEntry) ignoreSet {
	set := ignoreSet{}
	for _, e := range entries {
		lines := set[e.pos.Filename]
		if lines == nil {
			lines = map[int][]string{}
			set[e.pos.Filename] = lines
		}
		lines[e.pos.Line] = append(lines[e.pos.Line], e.rules...)
	}
	return set
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
