package lint

import (
	"bufio"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRx extracts the quoted regexes of a // want "..." ["..."]
// annotation.
var wantRx = regexp.MustCompile(`// want ((?:"[^"]*"\s*)+)`)

// fixtureWants parses the expected-diagnostic annotations of every
// fixture file in dir: file -> line -> list of regexes.
func fixtureWants(t *testing.T, dir string) map[string]map[int][]string {
	t.Helper()
	wants := map[string]map[int][]string{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for ln := 1; sc.Scan(); ln++ {
			m := wantRx.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			for _, q := range regexp.MustCompile(`"[^"]*"`).FindAllString(m[1], -1) {
				if wants[e.Name()] == nil {
					wants[e.Name()] = map[int][]string{}
				}
				wants[e.Name()][ln] = append(wants[e.Name()][ln], strings.Trim(q, `"`))
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		_ = f.Close()
	}
	return wants
}

// checkFixture lints testdata/src/<name> with every rule and verifies
// the diagnostics exactly match the // want annotations (each want
// matched by exactly one diagnostic on its line, no extras).
func checkFixture(t *testing.T, name string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	pkg, err := LoadDir(dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	runner := &Runner{Rules: AllRules()}
	diags := runner.Run([]*Package{pkg})
	wants := fixtureWants(t, dir)

	matched := map[*Diagnostic]bool{}
	for file, lines := range wants {
		for line, rxs := range lines {
			for _, rx := range rxs {
				re := regexp.MustCompile(rx)
				found := false
				for i := range diags {
					d := &diags[i]
					if matched[d] || d.Pos.Filename != file || d.Pos.Line != line {
						continue
					}
					if re.MatchString("[" + d.RuleID + "] " + d.Message) {
						matched[d] = true
						found = true
						break
					}
				}
				if !found {
					t.Errorf("%s:%d: want %q: no matching diagnostic", file, line, rx)
				}
			}
		}
	}
	for i := range diags {
		if !matched[&diags[i]] {
			t.Errorf("unexpected diagnostic: %s", diags[i])
		}
	}
}

func TestFloatCmpFixture(t *testing.T)    { checkFixture(t, "floatcmp") }
func TestShiftRangeFixture(t *testing.T)  { checkFixture(t, "shiftrange") }
func TestNaRCheckFixture(t *testing.T)    { checkFixture(t, "narcheck") }
func TestMutexCopyFixture(t *testing.T)   { checkFixture(t, "mutexcopy") }
func TestWaitGroupFixture(t *testing.T)   { checkFixture(t, "waitgroup") }
func TestCtxLoopFixture(t *testing.T)     { checkFixture(t, "ctxloop") }
func TestErrDropFixture(t *testing.T)     { checkFixture(t, "errdrop") }
func TestAtomicWriteFixture(t *testing.T) { checkFixture(t, "atomicwrite") }
func TestPkgDocFixture(t *testing.T)      { checkFixture(t, "pkgdoc") }
func TestQuireGuardFixture(t *testing.T)  { checkFixture(t, "quireguard") }
func TestBudgetScaleFixture(t *testing.T) { checkFixture(t, "budgetscale") }
func TestErrCodeFixture(t *testing.T)     { checkFixture(t, "errcode") }

// TestExportDocFixture pins the exportdoc rule against its fixture
// with an explicit table: the fixture cannot carry the usual trailing
// "// want" annotations because a trailing comment is precisely what
// the rule accepts as field documentation.
func TestExportDocFixture(t *testing.T) {
	pkg, err := LoadDir(filepath.Join("testdata", "src", "exportdoc"))
	if err != nil {
		t.Fatal(err)
	}
	runner := &Runner{Rules: []Rule{NewExportDoc()}}
	diags := runner.Run([]*Package{pkg})

	want := []struct {
		line  int
		field string
	}{
		{18, "Snapshot.Failed"},
		{20, "Snapshot.Elapsed"},
		{37, "Pair.Min"},
		{37, "Pair.Max"},
	}
	if len(diags) != len(want) {
		for _, d := range diags {
			t.Logf("got: %s", d)
		}
		t.Fatalf("diagnostic count = %d, want %d", len(diags), len(want))
	}
	for i, w := range want {
		d := diags[i]
		if d.Pos.Filename != "exportdoc.go" || d.Pos.Line != w.line || d.RuleID != "exportdoc" ||
			!strings.Contains(d.Message, "exported field "+w.field+" has no doc comment") {
			t.Errorf("diag[%d] = %s\nwant line %d for field %s", i, d, w.line, w.field)
		}
	}
}

// TestEndToEndAllRules lints the synthetic package that trips every
// rule and asserts the exact diagnostic set, pinning rule IDs,
// positions and message fragments in one place.
func TestEndToEndAllRules(t *testing.T) {
	pkg, err := LoadDir(filepath.Join("testdata", "src", "all"))
	if err != nil {
		t.Fatal(err)
	}
	runner := &Runner{Rules: AllRules()}
	diags := runner.Run([]*Package{pkg})

	want := []struct {
		line int
		rule string
		frag string
	}{
		{1, "pkgdoc", "package all has no package doc comment"},
		{21, "mutexcopy", "parameter copies guarded by value"},
		{24, "ctxloop", "never consults the enclosing function's context.Context"},
		{25, "waitgroup", "wg.Add inside the spawned goroutine races with Wait"},
		{31, "errdrop", "error result of fallible is discarded"},
		{32, "atomicwrite", "os.WriteFile writes the final path non-atomically"},
		{35, "narcheck", "arithmetic on posit decode result c.Decode(b)"},
		{39, "shiftrange", "signed shift count n is unguarded"},
		{40, "floatcmp", "float equality (==)"},
		{50, "exportdoc", "exported field Report.Done has no doc comment"},
		{61, "quireguard", "quire accumulation is never checked"},
		{73, "budgetscale", "misbudget hard-codes TrialsPerBit = 512"},
		{84, "errcode", `error code "nope" is not in the stable code registry`},
	}
	if len(diags) != len(want) {
		for _, d := range diags {
			t.Logf("got: %s", d)
		}
		t.Fatalf("diagnostic count = %d, want %d", len(diags), len(want))
	}
	for i, w := range want {
		d := diags[i]
		if d.Pos.Filename != "all.go" || d.Pos.Line != w.line || d.RuleID != w.rule ||
			!strings.Contains(d.Message, w.frag) {
			t.Errorf("diag[%d] = %s\nwant line %d rule %s containing %q", i, d, w.line, w.rule, w.frag)
		}
	}
}

// TestRepoIsClean runs the full rule set over the real module — the
// same check `make lint` performs. New violations anywhere in the
// repo fail this test (and therefore tier-1), which is the point: the
// substrate invariants are enforced, not advisory.
func TestRepoIsClean(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := LoadSuppressions(filepath.Join(root, ".positlint.suppress"))
	if err != nil {
		t.Fatal(err)
	}
	runner := &Runner{Rules: AllRules(), Suppress: sup}
	for _, d := range runner.Run(mod.Pkgs) {
		t.Errorf("%s", d)
	}
}

func TestSuppressionsFile(t *testing.T) {
	s, err := ParseSuppressions("test", strings.Join([]string{
		"# comment",
		"",
		"floatcmp internal/core/campaign.go:10 -- identity check",
		"errdrop cmd/*/main.go -- CLI print path",
		"* internal/qcat/qcat.go -- vendored reference",
	}, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		d    Diagnostic
		want bool
	}{
		{Diagnostic{Pos: pos("internal/core/campaign.go", 10), RuleID: "floatcmp"}, true},
		{Diagnostic{Pos: pos("internal/core/campaign.go", 11), RuleID: "floatcmp"}, false},
		{Diagnostic{Pos: pos("internal/core/campaign.go", 10), RuleID: "errdrop"}, false},
		{Diagnostic{Pos: pos("cmd/positreport/main.go", 99), RuleID: "errdrop"}, true},
		{Diagnostic{Pos: pos("cmd/positreport/main.go", 99), RuleID: "floatcmp"}, false},
		{Diagnostic{Pos: pos("internal/qcat/qcat.go", 3), RuleID: "shiftrange"}, true},
	}
	for i, c := range cases {
		if got := s.Match(c.d); got != c.want {
			t.Errorf("case %d: Match(%v) = %v, want %v", i, c.d, got, c.want)
		}
	}
}

// TestSuppressionAfterRename pins the rename behaviour: an entry
// carrying the old file path stops matching once the diagnostic
// reports the new path. The entry does not silently widen — it goes
// stale, and FindStale / -prune reports it for deletion.
func TestSuppressionAfterRename(t *testing.T) {
	s, err := ParseSuppressions("test", "floatcmp internal/core/oldname.go -- written before the rename")
	if err != nil {
		t.Fatal(err)
	}
	d := Diagnostic{Pos: pos("internal/core/oldname.go", 5), RuleID: "floatcmp"}
	if !s.Match(d) {
		t.Fatal("entry must match the pre-rename path")
	}
	d.Pos.Filename = "internal/core/newname.go"
	if s.Match(d) {
		t.Fatal("entry must not follow the file across a rename")
	}
	if stale := FindStale(nil, AllRules(), s); len(stale) != 1 || stale[0].Kind != "suppress" {
		t.Fatalf("renamed-away entry not reported stale: %v", stale)
	}
}

// TestExportDocGroupComment pins the group-comment edge case: one
// leading comment above a run of fields documents only the first
// field (go/doc's association), so the rest of the run is flagged.
func TestExportDocGroupComment(t *testing.T) {
	dir := t.TempDir()
	src := `// Package p checks doc-comment association over a field run.
package p

// Limits is a bounds pair.
type Limits struct {
	// Both bounds are inclusive.
	Lo int
	Hi int
}
`
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	diags := (&Runner{Rules: []Rule{NewExportDoc()}}).Run([]*Package{pkg})
	if len(diags) != 1 || diags[0].Pos.Line != 8 ||
		!strings.Contains(diags[0].Message, "exported field Limits.Hi") {
		t.Fatalf("diags = %v, want exactly Limits.Hi at p.go:8", diags)
	}
}

func TestSuppressionsRejectUndocumented(t *testing.T) {
	if _, err := ParseSuppressions("test", "floatcmp foo.go:1"); err == nil {
		t.Fatal("suppression without a reason must be rejected")
	}
	if _, err := ParseSuppressions("test", "nosuchrule foo.go:1 -- why"); err == nil {
		t.Fatal("unknown rule must be rejected")
	}
	if _, err := ParseSuppressions("test", "floatcmp foo.go:zero -- why"); err == nil {
		t.Fatal("bad line number must be rejected")
	}
}

func TestInlineIgnore(t *testing.T) {
	dir := t.TempDir()
	src := `// Package p is an inline-suppression fixture.
package p

func cmp(a, b float64) bool {
	//positlint:ignore floatcmp exact identity check for the test
	return a == b
}

func cmpSameLine(a, b float64) bool {
	return a == b //positlint:ignore floatcmp deliberate
}

func cmpNoReason(a, b float64) bool {
	//positlint:ignore floatcmp
	return a == b
}
`
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	runner := &Runner{Rules: AllRules()}
	diags := runner.Run([]*Package{pkg})
	// Expect: the malformed-directive report plus the unsuppressed
	// floatcmp under it; the two well-formed ignores suppress theirs.
	var ids []string
	for _, d := range diags {
		ids = append(ids, d.RuleID)
	}
	if len(diags) != 2 || diags[0].RuleID != "ignoredirective" || diags[1].RuleID != "floatcmp" {
		t.Fatalf("diagnostics = %v, want [ignoredirective floatcmp]", ids)
	}
}

func pos(file string, line int) token.Position {
	return token.Position{Filename: file, Line: line}
}
