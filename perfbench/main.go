// Command perfbench is positres's end-to-end benchmark. It runs one
// workload — one of the user paths named in ROADMAP.md — against the
// real positcampaign and positserve programs built from this checkout,
// checks their outputs, and prints one JSON result line.
//
// Usage (run.sh builds the programs and perfbench first):
//
//	bash perfbench/run.sh --workload paper_campaign --seed 1 --seconds 20 --trace 0
//
// With -trace 0 it reports the end-to-end metrics, measured with
// tracing off. With -trace 1 it reports the per-layer ledger: spans
// recorded in this package around calls into each layer's public
// functions, plus counts read from the programs' own outputs.
// README.md in this directory describes every workload, input and
// metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// runDeadline bounds one invocation; the contract allows 180s.
const runDeadline = 170 * time.Second

// env is what every workload receives.
type env struct {
	bin     string  // directory holding positcampaign and positserve
	state   string  // directory for program state, removed at exit
	seed    uint64  // workload seed: every input derives from it
	seconds float64 // length of the measured phase
	trace   bool    // report the per-layer ledger instead of end-to-end metrics
	smoke   bool    // tiny inputs, for the benchmark's own tests
	tracers []*tracer
}

// setups is how many times a workload sets up: the median of several
// keeps setup_s steady; a traced run needs one.
func (e *env) setups() int {
	if e.trace {
		return 1
	}
	return 5
}

// newTracer starts a tracer whose spans are written out when the run
// ends.
func (e *env) newTracer() *tracer {
	t := newTracer()
	e.tracers = append(e.tracers, t)
	return t
}

func (e *env) program(name string) string { return filepath.Join(e.bin, name) }

// outcome is what one workload run measured.
type outcome struct {
	setups    []float64 // seconds per set-up
	lat       []float64 // seconds per measured operation
	rates     []float64 // injections per second, per operation or per one-second slice
	window    float64   // seconds the measured loop ran
	rssMB     float64   // peak resident set of the program's processes
	attempted int64
	failed    int64
	problems  []string           // output-check mismatches and failures
	layers    map[string]float64 // per-layer metrics (trace runs)
}

// fail records one failed operation.
func (o *outcome) fail(err error) {
	o.failed++
	if len(o.problems) < 8 {
		o.problems = append(o.problems, err.Error())
	}
}

// workload is one benchmark workload.
type workload struct {
	name string
	run  func(ctx context.Context, e *env) (*outcome, error)
}

var workloads = []workload{
	{"paper_campaign", runPaperCampaign},
	{"dense_campaign", runDenseCampaign},
	{"cluster_campaign", runClusterCampaign},
	{"inject_zipf", runInjectZipf},
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the -trace 0 metrics; every workload reports each.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"inj_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayer lists the -trace 1 metrics; a layer a workload does not
// exercise reports 0. Times and counts are per operation (one
// campaign, or one /v1/inject request).
var perLayer = []metricDef{
	{"bench.self_s", "s"},
	{"runner.self_s", "s"},
	{"runner.journal_records", "count"},
	{"runner.journal_bytes", "B"},
	{"runner.worker_utilization", "frac"},
	{"sdrbench.generate_s", "s"},
	{"sdrbench.generate_calls", "count"},
	{"stats.summarize_s", "s"},
	{"stats.summarize_calls", "count"},
	{"core.inject_s", "s"},
	{"core.injections", "count"},
	{"store.append_s", "s"},
	{"store.append_calls", "count"},
	{"store.seal_s", "s"},
	{"store.file_bytes", "B"},
	{"store.render_s", "s"},
	{"store.render_bytes", "B"},
	{"wire.frames", "count"},
	{"wire.bytes", "B"},
	{"wire.fallbacks", "count"},
	{"serve.submit_wait_s", "s"},
	{"serve.results_csv_s", "s"},
	{"serve.results_json_s", "s"},
	{"serve.inject_s", "s"},
	{"serve.inject_cache_hits", "count"},
	{"serve.inject_cache_misses", "count"},
	{"serve.inject_cache_hit_ratio", "frac"},
	{"trace.ops", "count"},
	{"trace.wall_s", "s"},
	{"trace.ledger_gap_frac", "frac"},
	{"trace.overhead_frac", "frac"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload name, or all to run every workload in turn")
		seed    = fs.Uint64("seed", 1, "workload seed")
		seconds = fs.Float64("seconds", 12, "length of the measured phase, seconds")
		trace   = fs.Int("trace", 0, "1 reports the per-layer ledger, 0 the end-to-end metrics")
		bin     = fs.String("bin", "", "directory holding the built positcampaign and positserve")
		state   = fs.String("state", "", "directory for program state (emptied first, removed at exit)")
		spans   = fs.String("spans", "", "with -trace 1, write every recorded span to this file as JSON lines")
		smoke   = fs.Bool("smoke", false, "tiny inputs, for the benchmark's own tests")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var chosen []workload
	for _, w := range workloads {
		if w.name == *name || *name == "all" {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 || *bin == "" || *state == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need -workload (all, or one of paper_campaign, dense_campaign, cluster_campaign, inject_zipf), -bin, -state, -seconds > 0 and -trace 0|1")
		return 2
	}
	for _, p := range []string{"positcampaign", "positserve"} {
		if _, err := os.Stat(filepath.Join(*bin, p)); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
	}
	defer os.RemoveAll(*state)
	if *spans != "" {
		if err := os.Remove(*spans); err != nil && !os.IsNotExist(err) {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	code := 0
	for _, w := range chosen {
		e := &env{bin: *bin, state: *state, seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke}
		if err := runOne(w, e, *spans, stdout, stderr); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// runOne runs one workload in an emptied state directory, prints its
// table to stderr and its result line to stdout, and writes its spans.
// It fails when the workload could not run or an output check failed.
func runOne(w workload, e *env, spansPath string, stdout, stderr io.Writer) error {
	if err := os.RemoveAll(e.state); err != nil {
		return err
	}
	if err := os.MkdirAll(e.state, 0o755); err != nil {
		return err
	}
	// Flush what earlier runs left for the kernel to write back, so that
	// their disk traffic does not fall inside this run's measurements.
	syscall.Sync()
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	o, err := w.run(ctx, e)
	if err != nil {
		return err
	}
	res := assemble(o, e.trace)
	printTable(stderr, w.name, o, res, e.trace)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if e.trace && spansPath != "" {
		if err := writeSpans(spansPath, w.name, e.tracers); err != nil {
			return err
		}
	}
	if !res.Correct {
		return fmt.Errorf("%d of %d operations failed their checks", o.failed, o.attempted)
	}
	return nil
}

// assemble turns an outcome into the result line.
func assemble(o *outcome, trace bool) result {
	res := result{
		Correct:   o.failed == 0 && len(o.problems) == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	if trace {
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{o.layers[m.name], m.unit}
		}
		return res
	}
	tailV, _ := tail(o.lat)
	values := map[string]float64{
		"setup_s":         median(o.setups),
		"inj_per_s":       median(o.rates),
		"latency_p50_ms":  median(o.lat) * 1e3,
		"latency_tail_ms": tailV * 1e3,
		"peak_rss_mb":     o.rssMB,
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metricValue{values[m.name], m.unit}
	}
	return res
}

// printTable writes the human-readable report to stderr: every metric
// by name with its unit, the sample counts, and any failures.
func printTable(w io.Writer, name string, o *outcome, res result, trace bool) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	fmt.Fprintf(w, "perfbench %s (trace=%v)\n", name, trace)
	for _, m := range defs {
		fmt.Fprintf(w, "  %-30s %16.6g %s\n", m.name, res.Metrics[m.name].Value, m.unit)
	}
	if !trace {
		_, pct := tail(o.lat)
		fmt.Fprintf(w, "  latency samples %d (tail = p%.4g), set-ups %d, window %.2fs\n", len(o.lat), pct, len(o.setups), o.window)
	}
	frac := 0.0
	if o.attempted > 0 {
		frac = float64(o.failed) / float64(o.attempted)
	}
	fmt.Fprintf(w, "  failed_frac %.6g (%d of %d operations)\n", frac, o.failed, o.attempted)
	for _, p := range o.problems {
		fmt.Fprintln(w, "  FAILED:", p)
	}
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder is the percentiles tail chooses from. A fixed ladder
// keeps the reported percentile the same from run to run as long as
// the sample count stays in the same band.
var tailLadder = []float64{99.9, 99, 90, 75}

// tail returns the highest ladder percentile (nearest rank) with at
// least ten samples above it, and that percentile. When no ladder step
// has ten samples above it, it returns the median (percentile 50): the
// run resolves no tail.
func tail(xs []float64) (float64, float64) {
	n := len(xs)
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, p := range tailLadder {
		rank := int(math.Ceil(p / 100 * float64(n))) // nearest rank, 1-based
		if rank >= 1 && n-rank >= 10 {
			return s[rank-1], p
		}
	}
	return median(xs), 50
}

// mix64 derives a well-mixed value from a seed and labels, so every
// input of a run is a function of -seed alone.
func mix64(seed uint64, labels ...string) uint64 {
	h := seed ^ 0x9e3779b97f4a7c15
	for _, l := range labels {
		for i := 0; i < len(l); i++ {
			h = (h ^ uint64(l[i])) * 0x100000001b3
		}
		h = splitmix(h)
	}
	return splitmix(h)
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// opSeed is the campaign seed of operation i: nonzero, and distinct
// per workload, run seed and operation.
func opSeed(seed uint64, workload string, i int) uint64 {
	return mix64(seed, workload, fmt.Sprint(i))%(1<<48) + 1
}
