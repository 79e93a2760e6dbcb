package positres_test

// End-to-end CLI tests: build each tool and drive it the way a user
// would, checking output shape and exit behaviour.

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
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

func TestCLIPositinspect(t *testing.T) {
	bin := buildTool(t, "positinspect")
	out, err := run(t, bin, "-value", "186.25", "-fmt", "posit32", "-sweep")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"posit32", "0|110|11|", "regime-expand", "sign", "fraction"} {
		if !strings.Contains(out, want) {
			t.Errorf("inspect output missing %q:\n%s", want, out)
		}
	}
	// IEEE mode with raw bits.
	out, err = run(t, bin, "-bits", "0x3F800000", "-fmt", "ieee32")
	if err != nil || !strings.Contains(out, "value:   1") {
		t.Errorf("ieee inspect: %v\n%s", err, out)
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
