package lint

// Stale-suppression pruning: `positlint -prune`. Suppressions are
// debt — each one records a finding someone decided was a false
// positive. When the flagged code is later fixed, renamed or deleted,
// the entry keeps matching nothing and quietly widens what future
// regressions can hide behind (a file glob that once covered one
// finding will happily swallow the next, unrelated one). Prune runs
// the full rule set with suppression DISABLED, then reports every
// file-based entry and every inline //positlint:ignore directive that
// no longer matches any diagnostic. `make ci` fails on stale entries,
// so the suppression files shrink as the findings they covered die.

import (
	"fmt"
	"slices"
	"strings"
)

// Stale is one suppression that no longer suppresses anything.
type Stale struct {
	// Kind is "suppress" (a .positlint.suppress entry) or "ignore"
	// (an inline //positlint:ignore directive).
	Kind string
	// Where locates the entry: "file:line" of the directive, or the
	// suppression file line rendered back for file-based entries.
	Where string
	// Detail restates the entry so the report is actionable alone.
	Detail string
}

// String renders the stale entry for terminal output.
func (s Stale) String() string {
	return fmt.Sprintf("%s: stale %s: %s", s.Where, s.Kind, s.Detail)
}

// FindStale lints pkgs with every suppression mechanism disabled and
// returns the suppressions that matched no diagnostic. The rule set
// must be the full one for the answer to be meaningful: an entry for a
// rule that simply was not run would be falsely reported stale.
func FindStale(pkgs []*Package, rules []Rule, sup *Suppressions) []Stale {
	raw, directives, _ := analyze(pkgs, rules) // malformed directives are lint findings, not suppressions

	var stale []Stale
	for _, e := range directives {
		if !slices.ContainsFunc(raw, e.matches) {
			stale = append(stale, Stale{
				Kind:  "ignore",
				Where: fmt.Sprintf("%s:%d", e.pos.Filename, e.pos.Line),
				Detail: fmt.Sprintf("//positlint:ignore %s matches no diagnostic; delete the directive",
					strings.Join(e.rules, ",")),
			})
		}
	}
	if sup == nil {
		return stale
	}
	for _, e := range sup.Entries {
		if !slices.ContainsFunc(raw, e.Matches) {
			where := e.Path
			if e.Line != 0 {
				where = fmt.Sprintf("%s:%d", e.Path, e.Line)
			}
			stale = append(stale, Stale{
				Kind:   "suppress",
				Where:  where,
				Detail: fmt.Sprintf("entry %q matches no diagnostic; delete it from .positlint.suppress", e.Rule+" "+e.Path),
			})
		}
	}
	return stale
}
