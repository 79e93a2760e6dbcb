// Command positlint runs the repository's domain-aware static
// analysis (internal/lint) and reports diagnostics as
// "file:line:col: [rule] message" lines.
//
// Usage:
//
//	positlint [flags] [patterns...]
//
// Patterns follow the go tool shape: "./..." (default) lints every
// package in the module, "./internal/posit/..." a subtree,
// "./internal/posit" one package. A pattern naming a directory
// outside the module package graph (for example a testdata fixture
// directory) is loaded as a standalone package.
//
// Exit status: 0 when clean, 1 when any diagnostic survives
// suppression (with -fix: survives fixing; with -prune: any stale
// suppression), 2 on load/type-check errors, patterns matching no Go
// packages, or bad usage.
//
// Flags beyond rule selection:
//
//	-fix          apply the suggested fixes of mechanical rules
//	              (errdrop, pkgdoc, exportdoc) in place, then report
//	              what remains
//	-format json  emit the diagnostics as a positlint-diag/v1 JSON
//	              report instead of text lines (CI archives this)
//	-prune        report suppression-file entries and inline ignore
//	              directives that no longer match any diagnostic
//
// Suppressions: see docs/LINT.md. File-based entries live in
// .positlint.suppress at the module root; inline escapes use
// //positlint:ignore <rule> <reason> on or above the flagged line.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"positres/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("positlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list     = fs.Bool("list", false, "list the rules and exit")
		rulesCSV = fs.String("rules", "", "comma-separated rule IDs to run (default: all)")
		suppress = fs.String("suppress", "", "suppression file (default: <module root>/.positlint.suppress)")
		fix      = fs.Bool("fix", false, "apply suggested fixes in place, then report what remains")
		format   = fs.String("format", "text", "output format: text or json")
		prune    = fs.Bool("prune", false, "report stale suppressions and ignore directives instead of linting")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: positlint [flags] [patterns...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *format != "text" && *format != "json" {
		fmt.Fprintf(stderr, "positlint: -format must be text or json, got %q\n", *format)
		return 2
	}

	if *list {
		for _, r := range lint.AllRules() {
			fmt.Fprintf(stdout, "%-12s %s\n", r.ID(), r.Doc())
		}
		return 0
	}

	rules := lint.AllRules()
	if *rulesCSV != "" {
		rules = nil
		for _, id := range strings.Split(*rulesCSV, ",") {
			r, ok := lint.RuleByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(stderr, "positlint: unknown rule %q (see -list)\n", id)
				return 2
			}
			rules = append(rules, r)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "positlint: %v\n", err)
		return 2
	}

	var pkgs []*lint.Package
	var sup *lint.Suppressions
	for _, pat := range patterns {
		loaded, s, err := load(cwd, pat, *suppress)
		if err != nil {
			fmt.Fprintf(stderr, "positlint: %v\n", err)
			return 2
		}
		if s != nil {
			sup = s
		}
		pkgs = append(pkgs, loaded...)
	}
	if len(pkgs) == 0 {
		fmt.Fprintf(stderr, "positlint: no Go packages matched %s\n", strings.Join(patterns, " "))
		return 2
	}

	if *prune {
		stale := lint.FindStale(pkgs, rules, sup)
		for _, s := range stale {
			fmt.Fprintln(stdout, s)
		}
		if len(stale) > 0 {
			fmt.Fprintf(stderr, "positlint: %d stale suppression(s); delete them\n", len(stale))
			return 1
		}
		return 0
	}

	diags := (&lint.Runner{Rules: rules, Suppress: sup}).Run(pkgs)

	if *fix {
		changed, err := lint.ApplyFixes(diags)
		if err != nil {
			fmt.Fprintf(stderr, "positlint: %v\n", err)
			return 2
		}
		if n := lint.Fixable(diags); n > 0 {
			fmt.Fprintf(stderr, "positlint: fixed %d issue(s) in %d file(s)\n", n, len(changed))
		}
		var remaining []lint.Diagnostic
		for _, d := range diags {
			if d.Fix == nil {
				remaining = append(remaining, d)
			}
		}
		diags = remaining
	}

	if *format == "json" {
		if err := lint.WriteJSON(stdout, diags); err != nil {
			fmt.Fprintf(stderr, "positlint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "positlint: %d issue(s)\n", len(diags))
		return 1
	}
	return 0
}

// load resolves one pattern to lint packages, plus the module's
// suppression set when the pattern lies inside a module.
func load(cwd, pattern, suppressFlag string) ([]*lint.Package, *lint.Suppressions, error) {
	recursive := false
	dir := pattern
	if strings.HasSuffix(pattern, "/...") {
		recursive = true
		dir = strings.TrimSuffix(pattern, "/...")
	}
	if dir == "" || dir == "." {
		dir = cwd
	}
	if !filepath.IsAbs(dir) {
		dir = filepath.Join(cwd, dir)
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, nil, err
	}

	// An explicitly named suppression file applies to every load mode;
	// the module-root default only to module loads. Unlike the default,
	// an explicit file must exist.
	explicitSup := func() (*lint.Suppressions, error) {
		if suppressFlag == "" {
			return nil, nil
		}
		if _, err := os.Stat(suppressFlag); err != nil {
			return nil, err
		}
		return lint.LoadSuppressions(suppressFlag)
	}

	root, rootErr := lint.FindModuleRoot(abs)
	if rootErr != nil {
		// Outside any module: standalone directory load.
		pkg, err := lint.LoadDir(abs)
		if err != nil {
			return nil, nil, err
		}
		sup, err := explicitSup()
		if err != nil {
			return nil, nil, err
		}
		return []*lint.Package{pkg}, sup, nil
	}

	// Inside a module but under a testdata (or otherwise unwalked)
	// directory: load standalone, since the module loader skips it.
	if underSkipped(root, abs) {
		pkg, err := lint.LoadDir(abs)
		if err != nil {
			return nil, nil, err
		}
		sup, err := explicitSup()
		if err != nil {
			return nil, nil, err
		}
		return []*lint.Package{pkg}, sup, nil
	}

	mod, err := lint.LoadModule(root)
	if err != nil {
		return nil, nil, err
	}
	sup, err := explicitSup()
	if err != nil {
		return nil, nil, err
	}
	if sup == nil {
		if sup, err = lint.LoadSuppressions(filepath.Join(root, ".positlint.suppress")); err != nil {
			return nil, nil, err
		}
	}

	var out []*lint.Package
	for _, pkg := range mod.Pkgs {
		switch {
		case recursive && (pkg.Dir == abs || strings.HasPrefix(pkg.Dir+string(filepath.Separator), abs+string(filepath.Separator))):
			out = append(out, pkg)
		case !recursive && pkg.Dir == abs:
			out = append(out, pkg)
		}
	}
	if len(out) == 0 {
		return nil, nil, fmt.Errorf("pattern %s matched no packages", pattern)
	}
	return out, sup, nil
}

// underSkipped reports whether abs sits below a directory the module
// walker skips (testdata, vendor, hidden, underscore).
func underSkipped(root, abs string) bool {
	rel, err := filepath.Rel(root, abs)
	if err != nil || rel == "." {
		return false
	}
	for _, part := range strings.Split(filepath.ToSlash(rel), "/") {
		if part == "testdata" || part == "vendor" ||
			strings.HasPrefix(part, ".") || strings.HasPrefix(part, "_") {
			return true
		}
	}
	return false
}
