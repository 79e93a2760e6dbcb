package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestSelfTimesSumToRoot(t *testing.T) {
	s := func(name string, parent int, from, to int) span {
		return span{name: name, parent: parent, start: time.Duration(from) * time.Second, end: time.Duration(to) * time.Second}
	}
	// root [0,10] has children a [1,5] and b [3,8], which overlap; a has
	// a child g [2,3].
	spans := []span{s("root", -1, 0, 10), s("a", 0, 1, 5), s("b", 0, 3, 8), s("g", 1, 2, 3)}
	got := selfTimes(spans)
	want := map[string]float64{"root": 3, "a": 2, "g": 1, "b": 4}
	total := 0.0
	for name, w := range want {
		if math.Abs(got[name]-w) > 1e-9 {
			t.Errorf("self(%s) = %g, want %g", name, got[name], w)
		}
		total += got[name]
	}
	if math.Abs(total-10) > 1e-9 {
		t.Errorf("self times sum to %g, want the root's 10", total)
	}
}

func TestTail(t *testing.T) {
	few := []float64{5, 1, 4, 2, 3}
	if v, p := tail(few); v != 3 || p != 50 {
		t.Errorf("tail of 5 samples = %g at p%g, want the median 3 at p50", v, p)
	}
	var many []float64
	for i := 1; i <= 40; i++ {
		many = append(many, float64(i))
	}
	if v, p := tail(many); v != 30 || p != 75 {
		t.Errorf("tail of 1..40 = %g at p%g, want 30 (ten above it) at p75", v, p)
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json names exactly the
// metrics perfbench reports, with the same units, and only workloads
// it knows.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, perfbench reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), perfbench reports %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	for _, w := range doc.Workloads {
		found := false
		for _, k := range workloads {
			found = found || k.name == w.Name
		}
		if !found {
			t.Errorf("BENCHMARK.json workload %s is unknown to perfbench", w.Name)
		}
	}
}

// TestSmokeWorkloads runs every workload at its smoke size against
// freshly built programs, in both modes, and checks the result line.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the programs")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(os.PathSeparator), "positres/cmd/positcampaign", "positres/cmd/positserve")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"-workload", w.name, "-seed", "5", "-seconds", "0.3", "-trace", trace,
					"-bin", bin, "-state", filepath.Join(t.TempDir(), "state"), "-smoke"}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(want) {
					t.Fatalf("result %+v", res)
				}
				for _, m := range want {
					if _, ok := res.Metrics[m.name]; !ok {
						t.Errorf("missing metric %s", m.name)
					}
				}
				if trace == "0" {
					for _, m := range want {
						if v := res.Metrics[m.name].Value; !(v > 0) {
							t.Errorf("%s = %g, want > 0", m.name, v)
						}
					}
					return
				}
				v := func(name string) float64 { return res.Metrics[name].Value }
				switch w.name {
				case "paper_campaign":
					// One field × two formats: 2 specs, 8 shards of 4 trials per bit.
					if v("sdrbench.generate_calls") != 2 || v("runner.journal_records") != 8 || v("core.injections") != 256 {
						t.Errorf("paper ledger counts: %+v", res.Metrics)
					}
				case "dense_campaign":
					if v("runner.journal_records") != 0 || v("store.append_calls") != 27 {
						t.Errorf("dense ledger counts: %+v", res.Metrics)
					}
				case "cluster_campaign":
					if v("wire.frames") != 8 || v("wire.fallbacks") != 0 || v("serve.inject_cache_hits") == 0 {
						t.Errorf("cluster ledger counts: %+v", res.Metrics)
					}
				}
			})
		}
	}
}

// TestRefusesOutsideCheckout checks perfbench's usage errors: no
// workload, or no built programs, exits 2 without a result line.
func TestRefusesOutsideCheckout(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope", "-bin", t.TempDir(), "-state", t.TempDir()},
		{"-workload", "paper_campaign", "-bin", t.TempDir(), "-state", t.TempDir()},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("run(%v) = %d with stdout %q, want 2 and no result", args, code, stdout.String())
		}
	}
}
