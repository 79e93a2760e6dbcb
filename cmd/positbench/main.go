// Command positbench is the repo's micro-benchmark driver: it runs the
// fixed-budget suite — the allocation-free campaign loop, posit
// substrate micro-benchmarks (encode/decode/arithmetic/quire), the
// LUT-vs-generic and CLZ-vs-generic decode comparisons, the
// store-block-vs-CSV trial codec comparison, the store append/render
// paths and representative figure regenerations — through
// testing.Benchmark and writes a schema-versioned JSON baseline (see
// docs/PERF.md) suitable for committing as BENCH_<pr>.json and diffing
// across PRs. End-to-end paths (campaign CLI, service, cluster) are
// perfbench's to measure (perfbench/README.md).
//
// Usage:
//
//	positbench                      # human-readable table on stdout
//	positbench -out BENCH_PR3.json  # also write the JSON baseline
//	positbench -smoke               # tiny budget for CI smoke runs
//	positbench -benchtime 1s        # override the per-bench budget
//
// Exit codes: 0 success; 1 a benchmark failed; 2 usage.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"positres/internal/artifact"
	"positres/internal/atomicio"
	"positres/internal/core"
	"positres/internal/ecc"
	"positres/internal/figures"
	"positres/internal/numfmt"
	"positres/internal/posit"
	"positres/internal/sdrbench"
	"positres/internal/store"
	"positres/internal/textplot"
)

// ReportSchema versions the JSON layout of the emitted baseline. Bump
// it on any breaking field change so trajectory tooling can dispatch.
const ReportSchema = "positres-bench/v1"

// BenchResult is one benchmark's measurement.
type BenchResult struct {
	Name        string             `json:"name"`              // Go benchmark name, e.g. BenchmarkEncodePosit16
	N           int                `json:"n"`                 // iterations actually run
	NsPerOp     float64            `json:"ns_per_op"`         // wall time per iteration
	AllocsPerOp int64              `json:"allocs_per_op"`     // heap allocations per iteration
	BytesPerOp  int64              `json:"bytes_per_op"`      // heap bytes per iteration
	Metrics     map[string]float64 `json:"metrics,omitempty"` // b.ReportMetric extras
}

// Report is the full baseline document.
type Report struct {
	Schema     string             `json:"schema"`         // always ReportSchema
	GitSHA     string             `json:"git_sha"`        // HEAD commit, "unknown" outside a checkout
	GoVersion  string             `json:"go_version"`     // runtime.Version() of the toolchain
	GOOS       string             `json:"goos"`           // build target OS
	GOARCH     string             `json:"goarch"`         // build target architecture
	GOMAXPROCS int                `json:"gomaxprocs"`     // parallelism during the run
	NumCPU     int                `json:"num_cpu"`        // logical CPUs on the host
	UnixTime   int64              `json:"unix_time"`      // measurement time, Unix seconds
	Benchtime  string             `json:"benchtime"`      // -benchtime value the run used
	Smoke      bool               `json:"smoke"`          // true for -smoke runs (not comparable)
	DatasetN   int                `json:"dataset_n"`      // synthetic field length per campaign bench
	TrialsBit  int                `json:"trials_per_bit"` // campaign trials per bit position
	Seed       uint64             `json:"seed"`           // PRNG seed of the campaign benches
	Benchmarks []BenchResult      `json:"benchmarks"`     // one entry per benchmark, stable order
	Derived    map[string]float64 `json:"derived"`        // cross-benchmark ratios (see deriveMetrics)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("positbench", flag.ContinueOnError)
	outPath := fs.String("out", "", "write the JSON baseline to this file (atomic rename)")
	smoke := fs.Bool("smoke", false, "tiny budgets for CI smoke runs (1 iteration per bench)")
	benchtime := fs.String("benchtime", "", "per-benchmark budget (go test -benchtime syntax; default 0.2s, smoke 1x)")
	comparePath := fs.String("compare", "", "diff this run against a prior baseline JSON (schema-checked) after measuring")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// testing.Benchmark honors the test.benchtime flag, which only
	// exists after testing.Init. Init is a no-op inside `go test`
	// binaries (the framework already ran it), so positbench's own
	// main_test.go can exercise this path.
	testing.Init()
	bt := *benchtime
	if bt == "" {
		if *smoke {
			bt = "1x"
		} else {
			bt = "0.2s"
		}
	}
	if err := flag.Set("test.benchtime", bt); err != nil {
		fmt.Fprintln(os.Stderr, "positbench: set benchtime:", err)
		return 2
	}

	budget := figures.Budget{DatasetN: 50_000, TrialsPerBit: 40, Seed: 1}
	if *smoke {
		budget = figures.Budget{DatasetN: 2_000, TrialsPerBit: 4, Seed: 1}
	}

	rep := Report{
		Schema:     ReportSchema,
		GitSHA:     gitSHA(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		UnixTime:   time.Now().Unix(),
		Benchtime:  bt,
		Smoke:      *smoke,
		DatasetN:   budget.DatasetN,
		TrialsBit:  budget.TrialsPerBit,
		Seed:       budget.Seed,
		Derived:    map[string]float64{},
	}

	table := &textplot.Table{Header: []string{"benchmark", "ns/op", "allocs/op", "extra"}}
	byName := map[string]BenchResult{}
	for _, c := range benchCases(budget) {
		res := testing.Benchmark(c.fn)
		if res.N == 0 {
			fmt.Fprintf(os.Stderr, "positbench: %s produced no iterations (failed)\n", c.name)
			return 1
		}
		br := BenchResult{
			Name:        c.name,
			N:           res.N,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		}
		if len(res.Extra) > 0 {
			br.Metrics = map[string]float64{}
			for k, v := range res.Extra {
				br.Metrics[k] = v
			}
		}
		rep.Benchmarks = append(rep.Benchmarks, br)
		byName[c.name] = br
		table.AddRow(c.name, fmt.Sprintf("%.1f", br.NsPerOp),
			fmt.Sprintf("%d", br.AllocsPerOp), extraString(br.Metrics))
	}

	// Derived headline numbers: the LUT and CLZ decode tiers' measured
	// wins, the store block's win over the CSV codec, and the store
	// append and aggregate-figure ratios.
	for _, w := range []int{8, 16} {
		lut := byName[fmt.Sprintf("posit%d_decode_lut", w)]
		gen := byName[fmt.Sprintf("posit%d_decode_generic", w)]
		if lut.NsPerOp > 0 {
			rep.Derived[fmt.Sprintf("posit%d_decode_speedup", w)] = gen.NsPerOp / lut.NsPerOp
		}
	}
	for _, w := range []int{32, 64} {
		clz := byName[fmt.Sprintf("posit%d_decode_clz", w)]
		gen := byName[fmt.Sprintf("posit%d_decode_generic", w)]
		if clz.NsPerOp > 0 {
			rep.Derived[fmt.Sprintf("posit%d_decode_speedup", w)] = gen.NsPerOp / clz.NsPerOp
		}
	}
	if be, ok := byName["block_encode_shard"]; ok && be.NsPerOp > 0 {
		if ce, ok2 := byName["csv_encode_shard"]; ok2 {
			rep.Derived["block_encode_speedup"] = ce.NsPerOp / be.NsPerOp
			if bb := be.Metrics["block_bytes"]; bb > 0 {
				rep.Derived["block_csv_size_ratio"] = ce.Metrics["csv_bytes"] / bb
			}
		}
	}
	if bd, ok := byName["block_decode_shard"]; ok && bd.NsPerOp > 0 {
		if cd, ok2 := byName["csv_decode_shard"]; ok2 {
			rep.Derived["block_decode_speedup"] = cd.NsPerOp / bd.NsPerOp
		}
	}
	if sa, ok := byName["store_append_shard"]; ok {
		rep.Derived["store_append_allocs_per_op"] = float64(sa.AllocsPerOp)
		if tps := sa.Metrics["trials_per_shard"]; tps > 0 && sa.NsPerOp > 0 {
			rep.Derived["store_append_trials_per_sec"] = tps / (sa.NsPerOp / 1e9)
		}
	}
	if fa, ok := byName["fig_from_aggregates"]; ok {
		if rr, ok2 := byName["store_render_csv"]; ok2 && fa.NsPerOp > 0 {
			// How much cheaper the aggregate path is than even one CSV
			// render of the same store (a full-campaign rescan would be
			// larger still).
			rep.Derived["agg_figure_vs_render_speedup"] = rr.NsPerOp / fa.NsPerOp
		}
	}

	fmt.Fprint(stdout, table.Render())
	for _, k := range []string{"posit8_decode_speedup", "posit16_decode_speedup",
		"posit32_decode_speedup", "posit64_decode_speedup",
		"block_encode_speedup", "block_decode_speedup", "block_csv_size_ratio",
		"store_append_allocs_per_op", "store_append_trials_per_sec",
		"agg_figure_vs_render_speedup"} {
		if v, ok := rep.Derived[k]; ok {
			fmt.Fprintf(stdout, "%s: %.2f\n", k, v)
		}
	}

	if *outPath != "" {
		err := atomicio.WriteFile(*outPath, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(rep)
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "positbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "baseline: %s\n", *outPath)
	}
	if *comparePath != "" {
		if err := compareBaseline(stdout, *comparePath, &rep); err != nil {
			fmt.Fprintln(os.Stderr, "positbench:", err)
			return 1
		}
	}
	return 0
}

// compareBaseline diffs this run against a committed baseline: shared
// benchmarks by ns/op ratio, plus every derived metric side by side.
// The old document's schema tag is verified before anything is
// trusted — a /v2 baseline (or a non-bench JSON) is refused, not
// misread. The diff is informational: performance gating stays a human
// judgement (docs/PERF.md), so mismatched numbers never fail the run.
func compareBaseline(stdout io.Writer, path string, cur *Report) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var old Report
	if err := json.Unmarshal(raw, &old); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := artifact.CheckSchema(old.Schema, ReportSchema); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if old.Smoke || cur.Smoke {
		fmt.Fprintf(stdout, "compare: smoke baselines are not comparable (old smoke=%v, new smoke=%v); showing anyway\n",
			old.Smoke, cur.Smoke)
	}
	oldBy := map[string]BenchResult{}
	for _, b := range old.Benchmarks {
		oldBy[b.Name] = b
	}
	t := &textplot.Table{Header: []string{"benchmark", "old ns/op", "new ns/op", "new/old", "allocs old→new"}}
	for _, b := range cur.Benchmarks {
		o, ok := oldBy[b.Name]
		if !ok || o.NsPerOp <= 0 {
			continue
		}
		t.AddRow(b.Name, fmt.Sprintf("%.1f", o.NsPerOp), fmt.Sprintf("%.1f", b.NsPerOp),
			fmt.Sprintf("%.2f", b.NsPerOp/o.NsPerOp),
			fmt.Sprintf("%d→%d", o.AllocsPerOp, b.AllocsPerOp))
	}
	fmt.Fprintf(stdout, "compare vs %s (%s, go %s):\n%s", path, old.GitSHA, old.GoVersion, t.Render())
	for k, v := range cur.Derived {
		if ov, ok := old.Derived[k]; ok {
			fmt.Fprintf(stdout, "derived %s: %.2f -> %.2f\n", k, ov, v)
		} else {
			fmt.Fprintf(stdout, "derived %s: (new) %.2f\n", k, v)
		}
	}
	return nil
}

// gitSHA best-effort resolves the current commit for provenance; a
// missing git binary or repo yields "unknown", never an error.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func extraString(m map[string]float64) string {
	if len(m) == 0 {
		return ""
	}
	parts := make([]string, 0, len(m))
	for k, v := range m {
		parts = append(parts, fmt.Sprintf("%s=%.0f", k, v))
	}
	return strings.Join(parts, " ")
}

// sink variables defeat dead-code elimination in micro-benches.
var (
	sinkU64 uint64
	sinkF64 float64
)

type benchCase struct {
	name string
	fn   func(b *testing.B)
}

// benchCases builds the suite. Order is the report order.
func benchCases(budget figures.Budget) []benchCase {
	return []benchCase{
		// LUT-vs-generic decode: the PR 3 optimization under test.
		{"posit8_decode_lut", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkF64 = posit.DecodeFloat64(posit.Std8, uint64(i&0xFF))
			}
		}},
		{"posit8_decode_generic", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkF64 = posit.DecodeFloat64Generic(posit.Std8, uint64(i&0xFF))
			}
		}},
		{"posit16_decode_lut", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkF64 = posit.DecodeFloat64(posit.Std16, uint64(i&0xFFFF))
			}
		}},
		{"posit16_decode_generic", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkF64 = posit.DecodeFloat64Generic(posit.Std16, uint64(i&0xFFFF))
			}
		}},
		// CLZ-vs-generic decode: the branchless fast path the wide
		// formats dispatch to (posit8/16 take the LUT tier instead; the
		// tier table is in docs/ARCHITECTURE.md).
		{"posit32_decode_clz", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkF64 = posit.DecodeFloat64CLZ(posit.Std32, uint64(0x40000000+i&0xFFFFF))
			}
		}},
		{"posit32_decode_generic", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkF64 = posit.DecodeFloat64Generic(posit.Std32, uint64(0x40000000+i&0xFFFFF))
			}
		}},
		{"posit64_decode_clz", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkF64 = posit.DecodeFloat64CLZ(posit.Std64, uint64(0x4000000000000000+i&0xFFFFF))
			}
		}},
		{"posit64_decode_generic", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkF64 = posit.DecodeFloat64Generic(posit.Std64, uint64(0x4000000000000000+i&0xFFFFF))
			}
		}},
		// Substrate micro-benches.
		{"posit32_encode", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkU64 = posit.EncodeFloat64(posit.Std32, 186.25+float64(i&1023))
			}
		}},
		{"posit32_decode", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkF64 = posit.DecodeFloat64(posit.Std32, uint64(0x40000000+i&0xFFFFF))
			}
		}},
		{"posit32_add", func(b *testing.B) {
			x := posit.EncodeFloat64(posit.Std32, 186.25)
			y := posit.EncodeFloat64(posit.Std32, 0.0625)
			for i := 0; i < b.N; i++ {
				sinkU64 = posit.Add(posit.Std32, x, y)
			}
		}},
		{"posit32_mul", func(b *testing.B) {
			x := posit.EncodeFloat64(posit.Std32, 186.25)
			y := posit.EncodeFloat64(posit.Std32, 3.5)
			for i := 0; i < b.N; i++ {
				sinkU64 = posit.Mul(posit.Std32, x, y)
			}
		}},
		{"quire_dot64", benchQuireDot},
		{"ecc_secded_roundtrip", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cw := ecc.Encode(uint32(i))
				v, st := ecc.Decode(cw)
				if st != ecc.OK || v != uint32(i) {
					b.Fatal("ecc roundtrip")
				}
			}
		}},
		// The steady-state single-node loop: RunRangeInto at one worker
		// with a reused trial buffer — the shape the runner drives per
		// shard. 0 allocs/op is the PR 9 acceptance number.
		{"campaign_runrange_posit32", benchRunRange("posit32", budget)},
		// Trial codecs: one shard's trials through the store block
		// (docs/STORE.md) — the shard-hop body and journal payload —
		// vs the CSV rendering.
		{"block_encode_shard", benchBlockEncode(budget)},
		{"csv_encode_shard", benchCSVEncode(budget)},
		{"block_decode_shard", benchBlockDecode(budget)},
		{"csv_decode_shard", benchCSVDecode(budget)},
		// The columnar trial store: shard append (encode + per-bit
		// aggregation, the runner's sink path), CSV render from columns
		// (what GET /results streams), and a figure built purely from
		// the footer aggregates — no trial rescan, so its cost is
		// O(bits) however large the campaign was.
		{"store_append_shard", benchStoreAppend(budget)},
		{"store_render_csv", benchStoreRender(budget)},
		{"fig_from_aggregates", benchFigFromAggs(budget)},
		// Representative figure regenerations.
		{"fig_table1_summary", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t := figures.Table1(budget)
				if len(t.Rows) == 0 {
					b.Fatal("table rows")
				}
			}
		}},
		{"fig3_ieee_sweep", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := figures.Fig3()
				if len(c.Series) == 0 {
					b.Fatal("sweep series")
				}
			}
		}},
	}
}

func benchQuireDot(b *testing.B) {
	const n = 64
	a := make([]uint64, n)
	v := make([]float64, n)
	for i := range a {
		a[i] = posit.EncodeFloat64(posit.Std32, float64(i)+0.5)
		v[i] = 1.0 / (float64(i) + 1)
	}
	enc := make([]uint64, n)
	for i := range v {
		enc[i] = posit.EncodeFloat64(posit.Std32, v[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := posit.NewQuire(posit.Std32)
		for j := range a {
			q.AddProduct(a[j], enc[j])
		}
		sinkU64 = q.ToPosit()
	}
}

// shardTrials computes one representative shard's trials — the full
// posit32 bit range of one field at the budget's TrialsPerBit — for
// the block-vs-CSV codec benches.
func shardTrials(b *testing.B, budget figures.Budget) []core.Trial {
	b.Helper()
	field, err := sdrbench.Lookup("Hurricane/Vf30")
	if err != nil {
		b.Fatal(err)
	}
	data := sdrbench.ToFloat64(field.Generate(budget.DatasetN, 1))
	codec, err := numfmt.Lookup("posit32")
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.TrialsPerBit = budget.TrialsPerBit
	trials, err := core.RunRange(context.Background(), cfg, codec, field.Key(), data, 0, codec.Width())
	if err != nil {
		b.Fatal(err)
	}
	return trials
}

// benchBlockEncode measures store.AppendBlock over a reused buffer —
// the worker's and the journal's steady-state encode path.
func benchBlockEncode(budget figures.Budget) func(*testing.B) {
	return func(b *testing.B) {
		trials := shardTrials(b, budget)
		var dst []byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			dst, err = store.AppendBlock(dst[:0], "Hurricane/Vf30", "posit32", 0, 32, trials)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(dst)), "block_bytes")
	}
}

// benchCSVEncode measures WriteTrialsCSV into a reused buffer — the
// direct CSV rendering (positcampaign -out).
func benchCSVEncode(budget figures.Budget) func(*testing.B) {
	return func(b *testing.B) {
		trials := shardTrials(b, budget)
		var buf bytes.Buffer
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := core.WriteTrialsCSV(&buf, trials); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(buf.Len()), "csv_bytes")
	}
}

// benchBlockDecode measures store.DecodeBlock of one shard block —
// the coordinator's and the journal replay's decode path.
func benchBlockDecode(budget figures.Budget) func(*testing.B) {
	return func(b *testing.B) {
		trials := shardTrials(b, budget)
		block, err := store.AppendBlock(nil, "Hurricane/Vf30", "posit32", 0, 32, trials)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			got, err := store.DecodeBlock(block, "Hurricane/Vf30", "posit32", 0, 32, len(trials))
			if err != nil {
				b.Fatal(err)
			}
			sinkU64 = uint64(len(got))
		}
	}
}

// benchCSVDecode measures ReadTrialsCSV of the same shard as CSV —
// the positreport -from read path.
func benchCSVDecode(budget figures.Budget) func(*testing.B) {
	return func(b *testing.B) {
		var buf bytes.Buffer
		if err := core.WriteTrialsCSV(&buf, shardTrials(b, budget)); err != nil {
			b.Fatal(err)
		}
		raw := buf.Bytes()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			trials, err := core.ReadTrialsCSV(bytes.NewReader(raw))
			if err != nil {
				b.Fatal(err)
			}
			sinkU64 = uint64(len(trials))
		}
	}
}

// storeShard builds a sealed one-shard store for the render and
// aggregate benches, returning its path.
func storeShard(b *testing.B, budget figures.Budget, dir string) string {
	b.Helper()
	trials := shardTrials(b, budget)
	path := filepath.Join(dir, store.FileName("Hurricane/Vf30", "posit32"))
	w, err := store.NewWriter(path, "Hurricane/Vf30", "posit32")
	if err != nil {
		b.Fatal(err)
	}
	if err := w.AppendShard(0, 32, trials); err != nil {
		b.Fatal(err)
	}
	if err := w.Seal(); err != nil {
		b.Fatal(err)
	}
	return path
}

// benchStoreAppend measures the runner-sink hot path: one shard's
// trials encoded as a columnar block and aggregated per bit by
// core.AggregateByBit. A store takes each bit from one shard only, so
// every op is the first append of its bits, to a writer created (and
// discarded) outside the timer; allocs/op is therefore the per-shard
// cost of a campaign's appends, the per-bit aggregates included.
func benchStoreAppend(budget figures.Budget) func(*testing.B) {
	return func(b *testing.B) {
		trials := shardTrials(b, budget)
		path := filepath.Join(b.TempDir(), "append.pts")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			w, err := store.NewWriter(path, "Hurricane/Vf30", "posit32")
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			err = w.AppendShard(0, 32, trials)
			b.StopTimer()
			w.Abort()
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		b.StopTimer()
		b.ReportMetric(float64(len(trials)), "trials_per_shard")
	}
}

// benchStoreRender measures RenderCSV of one sealed shard — the
// on-demand CSV path behind GET /results.
func benchStoreRender(budget figures.Budget) func(*testing.B) {
	return func(b *testing.B) {
		rd, err := store.Open(storeShard(b, budget, b.TempDir()))
		if err != nil {
			b.Fatal(err)
		}
		defer rd.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := rd.RenderCSV(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(rd.Rows()), "rows")
	}
}

// benchFigFromAggs measures a per-bit figure assembled from the store
// footer alone — the aggregate-driven positreport path. No trial row
// is decoded; the whole build is O(bits).
func benchFigFromAggs(budget figures.Budget) func(*testing.B) {
	return func(b *testing.B) {
		rd, err := store.Open(storeShard(b, budget, b.TempDir()))
		if err != nil {
			b.Fatal(err)
		}
		defer rd.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			aggs := rd.BitAggs()
			c := figures.AggChart("bench", []textplot.Series{figures.AggSeries("posit32", aggs)})
			if len(c.Series[0].X) == 0 {
				b.Fatal("empty aggregate series")
			}
		}
	}
}

// benchRunRange measures the allocation-free single-node campaign
// loop: RunRangeInto at Workers == 1 with one trial buffer threaded
// through every iteration. Allocs/op here is the number BENCH_PR9.json
// pins at zero.
func benchRunRange(codecName string, budget figures.Budget) func(*testing.B) {
	return func(b *testing.B) {
		field, err := sdrbench.Lookup("Hurricane/Vf30")
		if err != nil {
			b.Fatal(err)
		}
		data := sdrbench.ToFloat64(field.Generate(budget.DatasetN, 1))
		codec, err := numfmt.Lookup(codecName)
		if err != nil {
			b.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.TrialsPerBit = budget.TrialsPerBit
		cfg.Workers = 1
		key := field.Key() // Key() concatenates; hoist it so the loop stays 0-alloc
		var buf []core.Trial
		// Warm the buffer once so first-call growth lands outside the
		// timed loop; afterwards every iteration reuses its capacity.
		buf, err = core.RunRangeInto(context.Background(), cfg, codec, key, data, 0, codec.Width(), buf)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		total := 0
		for i := 0; i < b.N; i++ {
			buf, err = core.RunRangeInto(context.Background(), cfg, codec, key, data, 0, codec.Width(), buf)
			if err != nil {
				b.Fatal(err)
			}
			total += len(buf)
		}
		b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "injections/s")
	}
}
