package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"positres/internal/lint"
)

// runCLI invokes run() with stdout/stderr captured in temp files.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	dir := t.TempDir()
	outF, err := os.Create(filepath.Join(dir, "out"))
	if err != nil {
		t.Fatal(err)
	}
	errF, err := os.Create(filepath.Join(dir, "err"))
	if err != nil {
		t.Fatal(err)
	}
	code = run(args, outF, errF)
	_ = outF.Close()
	_ = errF.Close()
	outB, err := os.ReadFile(outF.Name())
	if err != nil {
		t.Fatal(err)
	}
	errB, err := os.ReadFile(errF.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(outB), string(errB)
}

const allFixture = "../../internal/lint/testdata/src/all"

func TestListIncludesNewRules(t *testing.T) {
	code, out, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("-list exit = %d", code)
	}
	for _, id := range []string{"quireguard", "budgetscale", "errcode"} {
		if !strings.Contains(out, id) {
			t.Errorf("-list output missing rule %s", id)
		}
	}
}

func TestFixtureTripsNonZero(t *testing.T) {
	code, out, _ := runCLI(t, allFixture)
	if code != 1 {
		t.Fatalf("lint of all fixture exit = %d, want 1", code)
	}
	for _, id := range []string{"quireguard", "budgetscale", "errcode"} {
		if !strings.Contains(out, "["+id+"]") {
			t.Errorf("all fixture output missing a %s diagnostic", id)
		}
	}
}

// TestNoMatchingPackages pins the contract that a pattern resolving to
// no Go packages is a usage error (exit 2 with a clear message), never
// a silent green run.
func TestNoMatchingPackages(t *testing.T) {
	code, _, stderr := runCLI(t, "../../docs")
	if code != 2 {
		t.Fatalf("no-package pattern exit = %d, want 2 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "matched no packages") && !strings.Contains(stderr, "no Go packages") {
		t.Errorf("stderr lacks a clear no-match message: %s", stderr)
	}
	if code, _, _ := runCLI(t, "./does-not-exist"); code != 2 {
		t.Errorf("nonexistent pattern exit = %d, want 2", code)
	}
	empty := t.TempDir()
	if code, _, stderr := runCLI(t, empty); code != 2 {
		t.Errorf("empty-dir pattern exit = %d, want 2 (stderr: %s)", code, stderr)
	}
}

func TestBadFormatRejected(t *testing.T) {
	if code, _, _ := runCLI(t, "-format", "yaml", allFixture); code != 2 {
		t.Errorf("-format yaml exit = %d, want 2", code)
	}
}

func TestJSONFormat(t *testing.T) {
	code, out, _ := runCLI(t, "-format", "json", allFixture)
	if code != 1 {
		t.Fatalf("json lint exit = %d, want 1", code)
	}
	rep, err := lint.ReadJSON(strings.NewReader(out))
	if err != nil {
		t.Fatalf("output is not a valid report: %v", err)
	}
	if rep.Count == 0 || rep.Count != len(rep.Issues) {
		t.Errorf("report count = %d with %d issues", rep.Count, len(rep.Issues))
	}
}

// TestFixMakesFixtureClean copies the all fixture and verifies the
// ISSUE acceptance criterion: after `positlint -fix` with the
// mechanical rules, the copy lints clean.
func TestFixMakesFixtureClean(t *testing.T) {
	src, err := os.ReadFile(filepath.Join(allFixture, "all.go"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "all.go"), src, 0o644); err != nil {
		t.Fatal(err)
	}
	rules := "-rules=errdrop,pkgdoc,exportdoc"
	if code, _, stderr := runCLI(t, rules, "-fix", dir); code != 0 {
		t.Fatalf("-fix exit = %d (stderr: %s)", code, stderr)
	}
	if code, out, _ := runCLI(t, rules, dir); code != 0 {
		t.Fatalf("relint after -fix exit = %d:\n%s", code, out)
	}
}

func TestPruneReportsStaleSuppression(t *testing.T) {
	supFile := filepath.Join(t.TempDir(), "sup")
	if err := os.WriteFile(supFile, []byte("floatcmp gone/renamed.go -- stale leftover\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ := runCLI(t, "-prune", "-suppress", supFile, allFixture)
	if code != 1 {
		t.Fatalf("-prune with stale entry exit = %d, want 1", code)
	}
	if !strings.Contains(out, "stale suppress") {
		t.Errorf("prune output missing stale report: %s", out)
	}
}
