package positres_test

// End-to-end CLI tests: build each tool and drive it the way a user
// would, checking output shape and exit behaviour.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"positres/internal/numfmt"
)

// buildTool compiles a cmd into a temp dir once per test run.
func buildTool(t *testing.T, name string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("CLI build skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Dir = "."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func run(t *testing.T, bin string, args ...string) (string, error) {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	return string(out), err
}

// positinspectPins are SHA-256 digests of positinspect's full stdout,
// one per argument list: every registered format's sweep of a value
// above one and a negative value below one, the special patterns zero,
// NaR and ieee16 +Inf, a posit16 pattern with bits above the format
// width (described masked to the width, as the sweep sees it), and a
// describe-only run. A change to any printed byte of the
// fields, the sweep table or the flip classes fails the test.
var positinspectPins = map[string]string{
	"-value 186.25 -fmt bfloat16 -sweep":   "f5ace2a1ce7a34cffd0bf27fd89a581eaa282dc96d308dc8e991c771ecde7347",
	"-value -3e-5 -fmt bfloat16 -sweep":    "d2dff397641e8411e6b6e45cbf4b5a0235bdef0ed88b245a8659751879939ec5",
	"-value 186.25 -fmt ieee16 -sweep":     "0324a8a6aea62338e1288a7de702d2f236def61cbcad878c083b3dd383d00d3e",
	"-value -3e-5 -fmt ieee16 -sweep":      "df2355304d28ddc83d2b11afcc2bf53d5ece2839fdd73004eb8dce012c20c03b",
	"-value 186.25 -fmt ieee32 -sweep":     "f64274ddcfa1c27a32cc547cc76859e271c2f60a87262459ccdf6ff3132add3e",
	"-value -3e-5 -fmt ieee32 -sweep":      "99067696e95c27a24eaca01bf71c607d9976c07f6f2291305b736f18c9d1832a",
	"-value 186.25 -fmt ieee64 -sweep":     "ff118088a51c2336d8ebdc04136734d9bb05e24c02d9500264f8e6af5d331da0",
	"-value -3e-5 -fmt ieee64 -sweep":      "ceb90d85e94e11460338c76b0af9136cbfb45b4aaaf8febab1d00fda12947727",
	"-value 186.25 -fmt posit16 -sweep":    "1748944a6845db02b8cd723233b23ddd7a27292ee551343c29577b621159c1f6",
	"-value -3e-5 -fmt posit16 -sweep":     "d775b45ce6f15aa97dd67cc4a97b849751b5921e2bfdebc87c44ccf726e002f2",
	"-value 186.25 -fmt posit32 -sweep":    "78c03cef9b4551ef13ed1c514991371524084ea6ca93263b33793ccf7b797095",
	"-value -3e-5 -fmt posit32 -sweep":     "4f0e0e239b05118621675a8a428214557b83e851f71dbb7a3dc70c12f6966a5f",
	"-value 186.25 -fmt posit32es0 -sweep": "2bfb910590d14f5c92fb053a79ab5fc6598fc36ba0d24e953fbf54a9b124f337",
	"-value -3e-5 -fmt posit32es0 -sweep":  "33d8e91c2afaf8066378345d098a048f7d22cbec24fd8a0669bf6d393eb4de5c",
	"-value 186.25 -fmt posit32es1 -sweep": "9409a5be173971ab99d246dc872129c3ab4d2912577ec38a8d54f9c595c3ea3c",
	"-value -3e-5 -fmt posit32es1 -sweep":  "2cf916e9cca7176bf6e070c25cee2b807fe71026c78cc3d139c5be9d802c7fe5",
	"-value 186.25 -fmt posit32es3 -sweep": "010b800407bf00bfe26797ba4c2d75a3e87a3458e94a4ca5de6bdd08d886c737",
	"-value -3e-5 -fmt posit32es3 -sweep":  "74e69b1c2eb433b14db6e9820738b25b765b92859d79aea28e7afb1aa69638d2",
	"-value 186.25 -fmt posit64 -sweep":    "1547b3c1db323f0c2f7151efd9b370cf361aa51f6f72d9ceb1db24c8642aaef3",
	"-value -3e-5 -fmt posit64 -sweep":     "b376fe6e55324f2ad8048afd11d975d63d4c3c27bd0eb6f7e9d45ce44972226d",
	"-value 186.25 -fmt posit8 -sweep":     "dafcee2d0f22225feb2f0941892794cec47273b5494dcbd993dea4d0f94941d9",
	"-value -3e-5 -fmt posit8 -sweep":      "a77af8c32536df17a9d622ecee95123f5a3434505cbdafde87a985b78a9265c6",
	"-bits 0 -fmt posit8 -sweep":           "693d84ef55ff64c01074dda418977e16fd3e224e442e36a84667d82e049a6ad3",
	"-bits 0x8000 -fmt posit16 -sweep":     "c5e5be3e0edec41d6cf5150a059c471c0a1b0fb3234f85757314917e5065cb06",
	"-bits 0x7c00 -fmt ieee16 -sweep":      "7ece0139a20b220007af581d7e565c6ad8acb7c4fe4c4342d29db8f3217b5b70",
	"-bits 0x1c000 -fmt posit16 -sweep":    "6b3d13fa53fedf3fe8aa79bd147336e3fb67365df3bb8e6fe842421095017af2",
	"-bits 0x3F800000 -fmt ieee32":         "170a7d9e719c3583e132a706f1344e1df22c07bec9a08a3e2e535bd785c6eb2f",
}

func TestCLIPositinspect(t *testing.T) {
	bin := buildTool(t, "positinspect")
	for _, name := range numfmt.Names() {
		for _, v := range []string{"186.25", "-3e-5"} {
			if args := "-value " + v + " -fmt " + name + " -sweep"; positinspectPins[args] == "" {
				t.Errorf("no pinned digest for %q: pin every registered format", args)
			}
		}
	}
	for args, want := range positinspectPins {
		out, err := exec.Command(bin, strings.Fields(args)...).Output()
		if err != nil {
			t.Errorf("positinspect %s: %v", args, err)
			continue
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(out)); got != want {
			t.Errorf("positinspect %s: stdout sha256 %s, want %s:\n%s", args, got, want, out)
		}
	}
	// Missing input exits nonzero.
	if _, err := run(t, bin); err == nil {
		t.Error("no input should fail")
	}
	// Unknown format exits nonzero.
	if _, err := run(t, bin, "-value", "1", "-fmt", "bogus"); err == nil {
		t.Error("unknown format should fail")
	}
}

func TestCLISdrgen(t *testing.T) {
	bin := buildTool(t, "sdrgen")
	dir := t.TempDir()
	out, err := run(t, bin, "-out", dir, "-field", "CESM/CLOUD", "-n", "5000")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	path := filepath.Join(dir, "CESM_CLOUD.f32")
	st, err := os.Stat(path)
	if err != nil || st.Size() != 4*5000 {
		t.Fatalf("generated file: %v, size %d", err, st.Size())
	}
	// Table mode prints all 16 fields.
	out, err = run(t, bin, "-table", "-n", "2000")
	if err != nil || strings.Count(out, "Hurricane") != 6 {
		t.Errorf("table: %v\n%s", err, out)
	}
	// Unknown field fails.
	if _, err := run(t, bin, "-out", dir, "-field", "no/field"); err == nil {
		t.Error("unknown field should fail")
	}
}

func TestCLIPositcampaign(t *testing.T) {
	bin := buildTool(t, "positcampaign")
	dir := t.TempDir()
	out, err := run(t, bin, "-field", "Hurricane/Vf30", "-formats", "posit32,ieee32",
		"-n", "20000", "-trials", "10", "-out", dir)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"Hurricane/Vf30 / posit32", "Hurricane/Vf30 / ieee32", "mean rel err"} {
		if !strings.Contains(out, want) {
			t.Errorf("campaign output missing %q", want)
		}
	}
	for _, f := range []string{"Hurricane_Vf30_posit32.csv", "Hurricane_Vf30_ieee32.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatalf("log %s: %v", f, err)
		}
		if lines := strings.Count(string(data), "\n"); lines != 1+32*10 {
			t.Errorf("%s: %d lines, want %d", f, lines, 1+32*10)
		}
	}
	// Campaign over an explicit .f32 file.
	raw := filepath.Join(dir, "data.f32")
	gen := buildTool(t, "sdrgen")
	if out, err := run(t, gen, "-out", dir, "-field", "HACC/vx", "-n", "5000"); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	os.Rename(filepath.Join(dir, "HACC_vx.f32"), raw)
	out, err = run(t, bin, "-field", "HACC/vx", "-data", raw, "-formats", "posit16", "-trials", "5")
	if err != nil || !strings.Contains(out, "HACC/vx / posit16") {
		t.Errorf("file campaign: %v\n%s", err, out)
	}
	// A -data run streams into a store like any campaign, so it can
	// keep it.
	stores := t.TempDir()
	out, err = run(t, bin, "-field", "HACC/vx", "-data", raw, "-formats", "posit16", "-trials", "5", "-store-out", stores)
	if err != nil {
		t.Errorf("file campaign with -store-out: %v\n%s", err, out)
	} else if _, err := os.Stat(filepath.Join(stores, "HACC_vx_posit16.pts")); err != nil {
		t.Errorf("file campaign store: %v", err)
	}
	// The scratch stores behind -out are gone once a run returns; a
	// crashed run leaves its own, and the resume deletes them.
	scratch := func(dir string) []string {
		m, _ := filepath.Glob(filepath.Join(dir, ".stores-*"))
		return m
	}
	if s := scratch(dir); len(s) != 0 {
		t.Errorf("scratch stores left by a complete run: %v", s)
	}
	crash := t.TempDir()
	flags := []string{"-field", "CESM/CLOUD", "-formats", "posit16", "-n", "2000", "-trials", "3", "-bits-per-shard", "4", "-out", crash}
	if out, err := run(t, bin, append(flags[:len(flags):len(flags)], "-debug-crash-after", "1")...); err == nil {
		t.Errorf("crash run exited 0:\n%s", out)
	}
	if s := scratch(crash); len(s) != 1 {
		t.Errorf("crash run left scratch stores %v, want one directory", s)
	}
	if out, err := run(t, bin, append(flags[:len(flags):len(flags)], "-resume")...); err != nil {
		t.Errorf("resume: %v\n%s", err, out)
	}
	if s := scratch(crash); len(s) != 0 {
		t.Errorf("scratch stores left after resume: %v", s)
	}
	// Missing field flag exits nonzero.
	if _, err := run(t, bin); err == nil {
		t.Error("missing -field should fail")
	}
}

// TestCLIPositcampaignStoreSummary: the summary tables printed by an
// -out run (scratch stores, rendered as CSV) and a -store-out run (kept
// stores) are identical — both read the sealed footer, which holds
// core.AggregateByBit's exact medians.
func TestCLIPositcampaignStoreSummary(t *testing.T) {
	bin := buildTool(t, "positcampaign")
	tables := func(dest string) string {
		out, err := run(t, bin, "-field", "Hurricane/Vf30", "-formats", "posit32,ieee32",
			"-n", "20000", "-trials", "10", dest, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v\n%s", dest, err, out)
		}
		// Keep the tables; drop the lines naming timings and paths.
		var keep []string
		for _, line := range strings.Split(out, "\n") {
			if !strings.HasPrefix(line, "==") && !strings.HasPrefix(line, "   ") && !strings.HasPrefix(line, "total:") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	direct, stored := tables("-out"), tables("-store-out")
	if !strings.Contains(direct, "median rel err") {
		t.Fatalf("no summary table in -out output:\n%s", direct)
	}
	if direct != stored {
		t.Errorf("summary tables differ:\n-out:\n%s\n-store-out:\n%s", direct, stored)
	}
}

func TestCLIPositreport(t *testing.T) {
	bin := buildTool(t, "positreport")
	dir := t.TempDir()
	out, err := run(t, bin, "-fig", "3,7", "-tsv", dir)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "Fig 3") || !strings.Contains(out, "Fig 7") {
		t.Errorf("report output:\n%s", out)
	}
	for _, f := range []string{"fig3.tsv", "fig7.tsv"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("tsv %s: %v", f, err)
		}
	}
	// A fast campaign-backed figure with custom budget.
	out, err = run(t, bin, "-fig", "16", "-n", "20000", "-trials", "15")
	if err != nil || !strings.Contains(out, "Fig 16") {
		t.Errorf("fig16: %v\n%s", err, out)
	}
	// Unknown figure exits nonzero.
	if _, err := run(t, bin, "-fig", "99"); err == nil {
		t.Error("unknown figure should fail")
	}
}

func TestCLIPositloadSmoke(t *testing.T) {
	bin := buildTool(t, "positload")
	art := filepath.Join(t.TempDir(), "load.json")
	out, err := run(t, bin, "-smoke", "-duration", "2s", "-qps", "30",
		"-inject-workers", "4", "-campaign-n", "256", "-campaign-trials", "2",
		"-chaos-seed", "3", "-chaos-5xx-p", "0.05", "-out", art)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"smoke stack up", "BUDGET OK", "chaos injected"} {
		if !strings.Contains(out, want) {
			t.Errorf("smoke output missing %q:\n%s", want, out)
		}
	}
	raw, err := os.ReadFile(art)
	if err != nil || !bytes.Contains(raw, []byte(`"positres-load/v1"`)) {
		t.Errorf("artifact: %v\n%s", err, raw)
	}
	// -target and -smoke are mutually exclusive; neither is also wrong.
	if _, err := run(t, bin, "-smoke", "-target", "http://x"); err == nil {
		t.Error("-smoke with -target should fail")
	}
	if _, err := run(t, bin); err == nil {
		t.Error("no target should fail")
	}
}

func TestCLIChaosproxy(t *testing.T) {
	bin := buildTool(t, "chaosproxy")
	// Missing -target exits nonzero.
	if _, err := run(t, bin); err == nil {
		t.Error("missing -target should fail")
	}

	// A proxy to a dead upstream starts, answers 502, and drains with
	// a stats dump on SIGTERM.
	cmd := exec.Command(bin, "-target", "http://127.0.0.1:1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}()
	rd := bufio.NewReader(stdout)
	line, err := rd.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "chaosproxy: listening on http://") {
		t.Fatalf("banner %q: %v", line, err)
	}
	url := strings.TrimSpace(strings.TrimPrefix(line, "chaosproxy: listening on "))
	var rest bytes.Buffer
	restDone := make(chan struct{})
	go func() { defer close(restDone); _, _ = io.Copy(&rest, rd) }()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("dead upstream: got %d, want 502", resp.StatusCode)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("exit after SIGTERM: %v\n%s", err, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("chaosproxy did not drain after SIGTERM")
	}
	<-restDone
	if !strings.Contains(stderr.String(), `"upstream_errors": 1`) {
		t.Errorf("stderr missing stats dump:\n%s", stderr.String())
	}
	if !strings.Contains(rest.String(), "drained, exiting") {
		t.Errorf("stdout missing drain line:\n%s", rest.String())
	}
}

func TestCLIPositreportOffline(t *testing.T) {
	campaign := buildTool(t, "positcampaign")
	report := buildTool(t, "positreport")
	dir := t.TempDir()
	if out, err := run(t, campaign, "-field", "CESM/RELHUM", "-formats", "posit32,ieee32",
		"-n", "20000", "-trials", "10", "-out", dir); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	out, err := run(t, report, "-from", dir)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"Offline:", "posit32 CESM/RELHUM", "ieee32 CESM/RELHUM", "regime", "exponent"} {
		if !strings.Contains(out, want) {
			t.Errorf("offline report missing %q:\n%s", want, out)
		}
	}
	// Empty directory fails.
	if _, err := run(t, report, "-from", t.TempDir()); err == nil {
		t.Error("empty log dir should fail")
	}
}
