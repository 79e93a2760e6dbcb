package lint

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// loadFixture loads one testdata/src package or fails the test.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	pkg, err := LoadDir(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return pkg
}

func TestFactIndexErrorCodes(t *testing.T) {
	idx := BuildFacts([]*Package{loadFixture(t, "errcode")})
	for _, code := range []string{"bad-request", "not-found"} {
		if !idx.HasErrorCode(code) {
			t.Errorf("HasErrorCode(%q) = false", code)
		}
	}
	if idx.HasErrorCode("oops") {
		t.Error("unregistered code reported as registered")
	}
}

func TestFactIndexQuireAccum(t *testing.T) {
	idx := BuildFacts([]*Package{loadFixture(t, "quireguard")})
	var fact *QuireAccumFact
	for name, f := range idx.QuireAccum {
		if strings.HasSuffix(name, "accumulate") {
			fact = f
		}
	}
	if fact == nil {
		t.Fatalf("accumulate fact not collected; have %v", idx.QuireAccum)
	}
	if !reflect.DeepEqual(fact.Params, []int{0}) {
		t.Errorf("accumulate params = %v, want [0]", fact.Params)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	diags := (&Runner{Rules: AllRules()}).Run([]*Package{loadFixture(t, "all")})
	var buf bytes.Buffer
	if err := WriteJSON(&buf, diags); err != nil {
		t.Fatal(err)
	}
	rep, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != JSONSchema {
		t.Errorf("schema = %q", rep.Schema)
	}
	if rep.Count != len(diags) || len(rep.Issues) != len(diags) {
		t.Fatalf("count = %d/%d issues, want %d", rep.Count, len(rep.Issues), len(diags))
	}
	for i, d := range diags {
		is := rep.Issues[i]
		if is.File != d.Pos.Filename || is.Line != d.Pos.Line || is.Col != d.Pos.Column ||
			is.Rule != d.RuleID || is.Message != d.Message || is.Fixable != (d.Fix != nil) {
			t.Errorf("issue[%d] = %+v does not round-trip %s", i, is, d)
		}
	}
}

func TestReadJSONRejectsWrongSchema(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader(`{"schema":"something-else/v9","count":0,"issues":[]}`)); err == nil {
		t.Fatal("wrong schema accepted")
	}
}

// TestApplyFixesLintsClean copies the all fixture, applies every
// suggested fix, and re-lints with the mechanical rules: the fixed
// file must be clean — the acceptance contract of `positlint -fix`.
func TestApplyFixesLintsClean(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "src", "all", "all.go"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "all.go"), src, 0o644); err != nil {
		t.Fatal(err)
	}
	mechanical := []Rule{NewErrDrop(), NewPkgDoc(), NewExportDoc()}
	load := func() []Diagnostic {
		pkg, err := LoadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		return (&Runner{Rules: mechanical}).Run([]*Package{pkg})
	}
	diags := load()
	if n := Fixable(diags); n != len(diags) || n == 0 {
		t.Fatalf("mechanical rules produced %d diags, %d fixable", len(diags), n)
	}
	changed, err := ApplyFixes(diags)
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) != 1 {
		t.Fatalf("changed files = %v", changed)
	}
	if after := load(); len(after) != 0 {
		for _, d := range after {
			t.Errorf("still dirty after -fix: %s", d)
		}
	}
}

func TestApplyFixesRejectsOverlap(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "x.txt")
	if err := os.WriteFile(file, []byte("0123456789"), 0o644); err != nil {
		t.Fatal(err)
	}
	diags := []Diagnostic{
		{Fix: &SuggestedFix{Edits: []TextEdit{{File: file, Start: 2, End: 6, New: "A"}}}},
		{Fix: &SuggestedFix{Edits: []TextEdit{{File: file, Start: 4, End: 8, New: "B"}}}},
	}
	if _, err := ApplyFixes(diags); err == nil || !strings.Contains(err.Error(), "overlapping") {
		t.Fatalf("overlapping edits not rejected: %v", err)
	}
}

func TestFindStaleIgnoreDirective(t *testing.T) {
	dir := t.TempDir()
	src := `// Package p carries one live and one stale ignore directive.
package p

func cmp(a, b float64) bool {
	//positlint:ignore floatcmp exact identity check
	return a == b
}

func fine(a, b float64) bool {
	//positlint:ignore floatcmp nothing here trips anymore
	return a < b
}
`
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	stale := FindStale([]*Package{pkg}, AllRules(), &Suppressions{})
	if len(stale) != 1 {
		t.Fatalf("stale = %v, want exactly the directive in fine()", stale)
	}
	if stale[0].Kind != "ignore" || !strings.Contains(stale[0].Where, "p.go:10") {
		t.Errorf("stale[0] = %v, want the ignore at p.go:10", stale[0])
	}
}

func TestFindStaleSuppressEntries(t *testing.T) {
	pkg := loadFixture(t, "floatcmp")
	diags := (&Runner{Rules: AllRules()}).Run([]*Package{pkg})
	if len(diags) == 0 {
		t.Fatal("floatcmp fixture is unexpectedly clean")
	}
	live := diags[0]
	sup, err := ParseSuppressions("test", strings.Join([]string{
		"floatcmp " + live.Pos.Filename + " -- live: still matches",
		"errdrop gone/renamed.go -- stale: file was renamed",
	}, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	stale := FindStale([]*Package{pkg}, AllRules(), sup)
	if len(stale) != 1 {
		t.Fatalf("stale = %v, want only the renamed-file entry", stale)
	}
	if stale[0].Kind != "suppress" || !strings.Contains(stale[0].Detail, "errdrop gone/renamed.go") {
		t.Errorf("stale[0] = %v", stale[0])
	}
}
