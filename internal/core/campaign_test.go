package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"positres/internal/numfmt"
	"positres/internal/qcat"
	"positres/internal/sdrbench"
	"positres/internal/stats"
)

func testData(t *testing.T, key string, n int) []float64 {
	t.Helper()
	f, err := sdrbench.Lookup(key)
	if err != nil {
		t.Fatal(err)
	}
	return sdrbench.ToFloat64(f.Generate(n, 7))
}

func mustCodec(t *testing.T, name string) numfmt.Codec {
	t.Helper()
	c, err := numfmt.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func smallCfg() Config {
	cfg := DefaultConfig()
	cfg.TrialsPerBit = 25
	return cfg
}

// TestRunDeterministicAcrossWorkers: identical results at 1, 2 and 8
// workers — the determinism guarantee of the engine.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	data := testData(t, "Hurricane/Uf30", 20000)
	codec := mustCodec(t, "posit32")
	var results []*Result
	for _, w := range []int{1, 2, 8} {
		cfg := smallCfg()
		cfg.Workers = w
		r, err := Run(context.Background(), cfg, codec, "Hurricane/Uf30", data)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
	}
	if !reflect.DeepEqual(results[0].Trials, results[1].Trials) ||
		!reflect.DeepEqual(results[0].Trials, results[2].Trials) {
		t.Fatal("campaign results depend on worker count")
	}
}

// TestRunShape: trial layout covers every (bit, seq) pair exactly once.
func TestRunShape(t *testing.T) {
	data := testData(t, "CESM/RELHUM", 5000)
	codec := mustCodec(t, "posit16")
	cfg := smallCfg()
	r, err := Run(context.Background(), cfg, codec, "CESM/RELHUM", data)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Trials) != 16*cfg.TrialsPerBit {
		t.Fatalf("trial count %d", len(r.Trials))
	}
	seen := map[[2]int]bool{}
	for _, tr := range r.Trials {
		if tr.Bit < 0 || tr.Bit >= 16 || tr.Seq < 0 || tr.Seq >= cfg.TrialsPerBit {
			t.Fatalf("trial out of range: %+v", tr)
		}
		key := [2]int{tr.Bit, tr.Seq}
		if seen[key] {
			t.Fatalf("duplicate trial %v", key)
		}
		seen[key] = true
		if tr.Index < 0 || tr.Index >= len(data) {
			t.Fatal("index out of range")
		}
		if tr.OrigValue != data[tr.Index] {
			t.Fatal("OrigValue mismatch")
		}
		if tr.FaultyBits == tr.OrigBits {
			t.Fatal("flip did not change pattern")
		}
		if tr.FaultyBits^tr.OrigBits != uint64(1)<<uint(tr.Bit) {
			t.Fatal("flip touched wrong bit")
		}
		if tr.Field != "CESM/RELHUM" || tr.Codec != "posit16" {
			t.Fatal("provenance wrong")
		}
	}
}

// TestTrialErrorsConsistent: recorded errors equal recomputation from
// the recorded values, and sign-bit trials have the right field name.
func TestTrialErrorsConsistent(t *testing.T) {
	data := testData(t, "HACC/vx", 10000)
	for _, name := range []string{"posit32", "ieee32"} {
		codec := mustCodec(t, name)
		r, err := Run(context.Background(), smallCfg(), codec, "HACC/vx", data)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range r.Trials {
			if !tr.Catastrophic {
				wantAbs := math.Abs(tr.OrigValue - tr.FaultyVal)
				if tr.AbsErr != wantAbs {
					t.Fatalf("abs err mismatch: %+v", tr)
				}
				if tr.OrigValue != 0 && tr.RelErr != wantAbs/math.Abs(tr.OrigValue) {
					t.Fatalf("rel err mismatch: %+v", tr)
				}
			}
			if tr.Bit == codec.Width()-1 && tr.FieldName != "sign" {
				t.Fatalf("top bit should be sign: %+v", tr)
			}
			if name == "ieee32" && tr.RegimeK != 0 {
				t.Fatal("IEEE trials must not carry a regime size")
			}
			if name == "posit32" && tr.RegimeK < 1 {
				t.Fatalf("posit trial without regime size: %+v", tr)
			}
		}
	}
}

// TestSkipZeros: with SkipZeros, zero elements are never selected from
// a mostly-zero field; without it, they are.
func TestSkipZeros(t *testing.T) {
	data := testData(t, "Hurricane/CLOUDf48", 20000) // ~62% zeros
	codec := mustCodec(t, "posit32")
	cfg := smallCfg()
	r, err := Run(context.Background(), cfg, codec, "Hurricane/CLOUDf48", data)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range r.Trials {
		if tr.OrigValue == 0 {
			t.Fatal("zero selected despite SkipZeros")
		}
	}
	cfg.SkipZeros = false
	r, err = Run(context.Background(), cfg, codec, "Hurricane/CLOUDf48", data)
	if err != nil {
		t.Fatal(err)
	}
	zeros := 0
	for _, tr := range r.Trials {
		if tr.OrigValue == 0 {
			zeros++
			if !tr.Catastrophic {
				t.Fatal("zero-origin flip must be catastrophic")
			}
		}
	}
	if zeros == 0 {
		t.Error("expected zero selections with SkipZeros off")
	}
}

func TestRunErrors(t *testing.T) {
	codec := mustCodec(t, "posit32")
	if _, err := Run(context.Background(), smallCfg(), codec, "x", nil); err == nil {
		t.Error("empty data should error")
	}
	cfg := smallCfg()
	cfg.TrialsPerBit = 0
	if _, err := Run(context.Background(), cfg, codec, "x", []float64{1}); err == nil {
		t.Error("zero trials should error")
	}
}

// TestAggregateByBit: counts and means match hand computation.
func TestAggregateByBit(t *testing.T) {
	trials := []Trial{
		{Bit: 0, RelErr: 1, AbsErr: 10, FieldName: "fraction"},
		{Bit: 0, RelErr: 3, AbsErr: 30, FieldName: "fraction"},
		{Bit: 0, Catastrophic: true, FieldName: "sign"},
		{Bit: 2, RelErr: 5, AbsErr: 50, FieldName: "regime"},
	}
	aggs := AggregateByBit(trials)
	if len(aggs) != 2 || aggs[0].Bit != 0 || aggs[1].Bit != 2 {
		t.Fatalf("agg shape: %+v", aggs)
	}
	a := aggs[0]
	if a.Trials != 3 || a.Catastrophic != 1 || a.MeanRelErr != 2 || a.MedianRelErr != 2 {
		t.Errorf("bit0 agg: %+v", a)
	}
	if a.MaxRelErr != 3 || a.MeanAbsErr != 20 || a.MaxAbsErr != 30 {
		t.Errorf("bit0 agg extremes: %+v", a)
	}
	if math.Abs(a.FieldShare["fraction"]-2.0/3) > 1e-12 || math.Abs(a.FieldShare["sign"]-1.0/3) > 1e-12 {
		t.Errorf("field share: %+v", a.FieldShare)
	}
	if g := math.Sqrt(3.0); math.Abs(a.GeoRelErr-g) > 1e-12 {
		t.Errorf("geo mean: %v want %v", a.GeoRelErr, g)
	}
	// All-catastrophic bit: NaN aggregates.
	aggs = AggregateByBit([]Trial{{Bit: 1, Catastrophic: true}})
	if !math.IsNaN(aggs[0].MeanRelErr) || aggs[0].Catastrophic != 1 {
		t.Errorf("all-catastrophic agg: %+v", aggs[0])
	}
}

// TestAggregateByBitMatchesSliceStats: below stats' parallel threshold
// the one-pass fold gives, bit for bit, what the slice functions give
// over each bit's non-catastrophic errors in trial order — the
// definition the figures were built on, so their output does not move.
func TestAggregateByBitMatchesSliceStats(t *testing.T) {
	data := testData(t, "Hurricane/Vf30", 4000)
	r, err := Run(context.Background(), smallCfg(), mustCodec(t, "ieee32"), "Hurricane/Vf30", data)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range AggregateByBit(r.Trials) {
		var rels, abss []float64
		for _, tr := range r.Trials {
			if tr.Bit == a.Bit && !tr.Catastrophic {
				rels = append(rels, tr.RelErr)
				abss = append(abss, tr.AbsErr)
			}
		}
		if len(rels) == 0 {
			continue // all catastrophic: NaN aggregates, pinned by TestAggregateByBit
		}
		got := []float64{a.MeanRelErr, a.MedianRelErr, a.GeoRelErr, a.MaxRelErr, a.MeanAbsErr, a.MedianAbsErr, a.MaxAbsErr}
		want := []float64{stats.Mean(rels), stats.Median(rels), stats.GeoMean(rels), stats.Max(rels),
			stats.Mean(abss), stats.Median(abss), stats.Max(abss)}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("bit %d: aggregate %d = %v, slice stats %v", a.Bit, i, got[i], want[i])
			}
		}
	}
}

// TestAggregateByBitIndependentOfGOMAXPROCS: a bit with more trials
// than stats' parallel threshold (2^16) aggregates to the same bits at
// GOMAXPROCS 1 and 3 — the fold is serial, so a store appended on one
// machine and a figure computed on another agree.
func TestAggregateByBitIndependentOfGOMAXPROCS(t *testing.T) {
	rng := sdrbench.NewRNG(7, "gomaxprocs")
	trials := make([]Trial, 1<<17)
	for i := range trials {
		// Errors spanning a dozen decades make any reassociation of
		// the mean visible in its low bits.
		rel := math.Exp(24 * (rng.Float64() - 0.5))
		trials[i] = Trial{Bit: 5, RelErr: rel, AbsErr: 3 * rel, FieldName: "fraction"}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	want := AggregateByBit(trials)
	runtime.GOMAXPROCS(3)
	if got := AggregateByBit(trials); !reflect.DeepEqual(got, want) {
		t.Fatalf("GOMAXPROCS 3 aggregates %+v, GOMAXPROCS 1 %+v", got, want)
	}
}

func TestMagnitudeFiltersAndRegimeBuckets(t *testing.T) {
	trials := []Trial{
		{ReprValue: 2, RegimeK: 1},
		{ReprValue: -3, RegimeK: 2},
		{ReprValue: 0.5, RegimeK: 1},
		{ReprValue: -0.25, RegimeK: 2},
		{ReprValue: 0, RegimeK: 0},
	}
	above := MagnitudeAbove(trials)
	below := MagnitudeBelow(trials)
	if len(above) != 2 || len(below) != 2 {
		t.Fatalf("filters: %d above, %d below", len(above), len(below))
	}
	buckets := ByRegimeSize(trials)
	if len(buckets[1]) != 2 || len(buckets[2]) != 2 || len(buckets[0]) != 1 {
		t.Errorf("regime buckets: %v", buckets)
	}
	curves := RegimeCurve(above)
	if len(curves) != 2 {
		t.Errorf("regime curves: %v", curves)
	}
}

func TestSignBitErrorsAndBoxes(t *testing.T) {
	trials := []Trial{
		{Bit: 31, RegimeK: 1, AbsErr: 2},
		{Bit: 31, RegimeK: 1, AbsErr: 4},
		{Bit: 31, RegimeK: 3, AbsErr: 100},
		{Bit: 31, RegimeK: 2, Catastrophic: true},
		{Bit: 30, RegimeK: 1, AbsErr: 7}, // not the sign bit
	}
	errs := SignBitErrors(trials, 32)
	if len(errs[1]) != 2 || len(errs[3]) != 1 || len(errs[2]) != 0 {
		t.Errorf("sign errors: %v", errs)
	}
	boxes := SignBoxes(trials, 32)
	if len(boxes) != 2 || boxes[0].K != 1 || boxes[1].K != 3 {
		t.Fatalf("boxes: %+v", boxes)
	}
	if boxes[0].Box.Median != 3 {
		t.Errorf("k=1 median: %+v", boxes[0].Box)
	}
}

func TestFieldErrorSummary(t *testing.T) {
	trials := []Trial{
		{FieldName: "regime", RelErr: 10, AbsErr: 1},
		{FieldName: "regime", RelErr: 20, AbsErr: 2},
		{FieldName: "fraction", RelErr: 0.1, AbsErr: 0.2},
	}
	sum := FieldErrorSummary(trials)
	if sum["regime"].MeanRelErr != 15 || sum["fraction"].MeanRelErr != 0.1 {
		t.Errorf("field summary: %+v", sum)
	}

	// A posit campaign's field names interleave trial by trial, so each
	// field's errors arrive in many short runs; the fold must give what
	// it gives over that field's trials alone.
	data := testData(t, "Nyx/temperature", 4000)
	r, err := Run(context.Background(), smallCfg(), mustCodec(t, "posit16"), "Nyx/temperature", data)
	if err != nil {
		t.Fatal(err)
	}
	sum = FieldErrorSummary(r.Trials)
	if len(sum) < 3 {
		t.Fatalf("posit16 summary has %d fields, want sign/regime/exponent/fraction", len(sum))
	}
	for name, got := range sum {
		alone := FieldErrorSummary(Filter(r.Trials, func(tr Trial) bool { return tr.FieldName == name }))
		if g, w := fmt.Sprint(got), fmt.Sprint(alone[name]); g != w {
			t.Fatalf("%s: interleaved fold %s, alone %s", name, g, w)
		}
	}
}

// TestAggregateByBitAllocs pins the fold's pooled scratch: each bit's
// errors are gathered into a buffer drawn from a pool, so a steady-state
// call allocates only per-bit bookkeeping (its fold, field tallies and
// FieldShare map) plus the result, the fold map and the sort — not a
// copy of every trial's errors. Eight bits cost 46 allocations; with
// fresh per-bit error slices they cost 62.
func TestAggregateByBitAllocs(t *testing.T) {
	data := testData(t, "Hurricane/Uf30", 20000)
	cfg := smallCfg()
	cfg.TrialsPerBit = 1024
	trials, err := RunRange(context.Background(), cfg, mustCodec(t, "posit32"), "Hurricane/Uf30", data, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	const bits, maxPerBit = 8, 6
	allocs := testing.AllocsPerRun(20, func() { AggregateByBit(trials) })
	if allocs > bits*maxPerBit {
		t.Fatalf("AggregateByBit over %d bits allocates %.1f per call, want <= %d", bits, allocs, bits*maxPerBit)
	}
}

// TestCSVRoundTrip: write → read reproduces the trials exactly.
func TestCSVRoundTrip(t *testing.T) {
	data := testData(t, "Nyx/temperature", 3000)
	r, err := Run(context.Background(), smallCfg(), mustCodec(t, "posit32"), "Nyx/temperature", data)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrialsCSV(&buf, r.Trials); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrialsCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(r.Trials) {
		t.Fatalf("read %d trials, want %d", len(back), len(r.Trials))
	}
	for i := range back {
		a, b := back[i], r.Trials[i]
		// Infinities survive the g-format round trip; compare all
		// fields except float NaN identity.
		if a.Field != b.Field || a.Codec != b.Codec || a.Bit != b.Bit || a.Seq != b.Seq ||
			a.Index != b.Index || a.OrigBits != b.OrigBits || a.FaultyBits != b.FaultyBits ||
			a.FieldName != b.FieldName || a.RegimeK != b.RegimeK || a.Catastrophic != b.Catastrophic {
			t.Fatalf("row %d mismatch:\n%+v\n%+v", i, a, b)
		}
		if a.OrigValue != b.OrigValue || a.ReprValue != b.ReprValue {
			t.Fatalf("row %d value mismatch", i)
		}
		if a.AbsErr != b.AbsErr && !(math.IsNaN(a.AbsErr) && math.IsNaN(b.AbsErr)) {
			t.Fatalf("row %d abs err mismatch", i)
		}
		if a.FaultyVal != b.FaultyVal && !(math.IsNaN(a.FaultyVal) && math.IsNaN(b.FaultyVal)) {
			t.Fatalf("row %d faulty value mismatch", i)
		}
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := ReadTrialsCSV(bytes.NewBufferString("")); err == nil {
		t.Error("empty stream should error")
	}
	if _, err := ReadTrialsCSV(bytes.NewBufferString("a,b\n")); err == nil {
		t.Error("bad header should error")
	}
}

// TestFaultyArrayStats: incremental stats equal a full recompute.
func TestFaultyArrayStats(t *testing.T) {
	data := testData(t, "Hurricane/Vf30", 4000)
	base := stats.Summarize(data)
	r, err := Run(context.Background(), smallCfg(), mustCodec(t, "ieee32"), "Hurricane/Vf30", data)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range r.Trials[:200] {
		got := FaultyArrayStats(base, data, tr)
		tmp := append([]float64(nil), data...)
		tmp[tr.Index] = tr.FaultyVal
		want := stats.Summarize(tmp)
		tol := 1e-9 * math.Max(1, math.Abs(want.Mean))
		if math.Abs(got.Mean-want.Mean) > tol {
			t.Fatalf("mean: %v vs %v", got.Mean, want.Mean)
		}
		if got.Min != want.Min || got.Max != want.Max {
			t.Fatalf("extremes: %v/%v vs %v/%v", got.Min, got.Max, want.Min, want.Max)
		}
		if got.Median != want.Median {
			t.Fatalf("median: %v vs %v", got.Median, want.Median)
		}
		if math.Abs(got.Std-want.Std) > 1e-6*math.Max(1, want.Std) {
			t.Fatalf("std: %v vs %v", got.Std, want.Std)
		}
	}
}

// TestMultiBit: determinism, flip counts, and error monotony of the
// catastrophic rate in the flip count.
func TestMultiBit(t *testing.T) {
	data := testData(t, "HACC/vy", 10000)
	codec := mustCodec(t, "posit32")
	cfg := smallCfg()
	a, err := RunMultiBit(cfg, codec, "HACC/vy", data, 2, 300)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMultiBit(cfg, codec, "HACC/vy", data, 2, 300)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("multi-bit campaign not deterministic")
	}
	for _, tr := range a {
		if len(tr.Positions) != 2 || tr.Positions[0] >= tr.Positions[1] {
			t.Fatalf("positions: %v", tr.Positions)
		}
	}
	s := SummarizeMulti(a)
	if s.Trials != 300 || s.FlipCount != 2 {
		t.Errorf("summary: %+v", s)
	}
	if _, err := RunMultiBit(cfg, codec, "x", data, 0, 10); err == nil {
		t.Error("flip count 0 should error")
	}
	if _, err := RunMultiBit(cfg, codec, "x", data, 33, 10); err == nil {
		t.Error("flip count > width should error")
	}
	if _, err := RunMultiBit(cfg, codec, "x", nil, 1, 10); err == nil {
		t.Error("empty data should error")
	}
}

func TestSDCProbability(t *testing.T) {
	trials := []Trial{
		{Bit: 0, RelErr: 0.5},
		{Bit: 0, RelErr: 2},
		{Bit: 0, Catastrophic: true},
		{Bit: 1, RelErr: 0.001},
	}
	pts := SDCProbability(trials, 1.0)
	if len(pts) != 2 || pts[0].Bit != 0 || pts[1].Bit != 1 {
		t.Fatalf("points: %+v", pts)
	}
	if math.Abs(pts[0].Prob-2.0/3) > 1e-12 || pts[1].Prob != 0 {
		t.Errorf("probs: %+v", pts)
	}
	if got := OverallSDCRate(trials, 1.0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("overall: %v", got)
	}
	if !math.IsNaN(OverallSDCRate(nil, 1)) {
		t.Error("empty overall should be NaN")
	}
}

func TestECDF(t *testing.T) {
	trials := []Trial{
		{RelErr: 0.1}, {RelErr: 0.3}, {RelErr: 0.2}, {Catastrophic: true},
	}
	x, p, inf := ECDF(trials)
	if len(x) != 3 || x[0] != 0.1 || x[2] != 0.3 {
		t.Fatalf("x: %v", x)
	}
	if p[0] != 0.25 || p[2] != 0.75 {
		t.Errorf("p: %v", p)
	}
	if inf != 0.25 {
		t.Errorf("inf frac: %v", inf)
	}
	if x, _, _ := ECDF(nil); x != nil {
		t.Error("empty ECDF")
	}
}

// TestSDCCurvesPositVsIEEE: at a tolerance of 100% relative error, the
// posit campaign corrupts at most as often as IEEE on upper bits, and
// the overall corruption rate is lower or comparable.
func TestSDCCurvesPositVsIEEE(t *testing.T) {
	data := testData(t, "CESM/RELHUM", 20000)
	cfg := smallCfg()
	cfg.TrialsPerBit = 60
	pR, err := Run(context.Background(), cfg, mustCodec(t, "posit32"), "CESM/RELHUM", data)
	if err != nil {
		t.Fatal(err)
	}
	iR, err := Run(context.Background(), cfg, mustCodec(t, "ieee32"), "CESM/RELHUM", data)
	if err != nil {
		t.Fatal(err)
	}
	// Massive-corruption probability (rel err > 1e6): IEEE exponent
	// bits corrupt near-certainly; posit upper bits rarely.
	pPts := SDCProbability(pR.Trials, 1e6)
	iPts := SDCProbability(iR.Trials, 1e6)
	var pMax, iMax float64
	for _, pt := range pPts {
		if pt.Bit >= 24 && pt.Bit <= 30 && pt.Prob > pMax {
			pMax = pt.Prob
		}
	}
	for _, pt := range iPts {
		if pt.Bit >= 24 && pt.Bit <= 30 && pt.Prob > iMax {
			iMax = pt.Prob
		}
	}
	if !(iMax > 0.9) {
		t.Errorf("IEEE upper-bit massive-corruption prob %v, want > 0.9", iMax)
	}
	if !(pMax < iMax/2) {
		t.Errorf("posit upper-bit corruption %v not well below IEEE %v", pMax, iMax)
	}
}

// TestTrialArrayMetricsMatchesQCAT: the O(1) derivation equals a full
// qcat.Compare over materialized faulty arrays.
func TestTrialArrayMetricsMatchesQCAT(t *testing.T) {
	data := testData(t, "Hurricane/Wf30", 3000)
	base := stats.Summarize(data)
	nNonzero := CountNonzero(data)
	valueRange := base.Max - base.Min
	for _, name := range []string{"posit32", "ieee32"} {
		r, err := Run(context.Background(), smallCfg(), mustCodec(t, name), "Hurricane/Wf30", data)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range r.Trials[:300] {
			got := TrialArrayMetrics(tr, len(data), nNonzero, valueRange)
			faulty := append([]float64(nil), data...)
			faulty[tr.Index] = tr.FaultyVal
			want := qcat.Compare(data, faulty)
			if !metricsEqual(got, want) {
				t.Fatalf("%s trial %+v:\nderived %+v\ncompare %+v", name, tr, got, want)
			}
		}
	}
}

func metricsEqual(a, b qcat.Metrics) bool {
	eq := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) {
			return math.IsNaN(x) && math.IsNaN(y)
		}
		if math.IsInf(x, 0) || math.IsInf(y, 0) {
			return x == y
		}
		return math.Abs(x-y) <= 1e-12*math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
	}
	return a.N == b.N && a.SpecialValues == b.SpecialValues &&
		eq(a.MaxAbsErr, b.MaxAbsErr) && eq(a.MaxRelErr, b.MaxRelErr) &&
		eq(a.MSE, b.MSE) && eq(a.RMSE, b.RMSE) && eq(a.L2Norm, b.L2Norm) &&
		eq(a.MRED, b.MRED) && eq(a.NRMSE, b.NRMSE) && eq(a.PSNR, b.PSNR) &&
		eq(a.MaxValRangeRelErr, b.MaxValRangeRelErr)
}

// TestRunRangeIntoReusesBuffer: a caller-supplied buffer with enough
// capacity is filled in place and the results are identical to an
// allocating run — the hot-path contract runner and positbench lean on.
func TestRunRangeIntoReusesBuffer(t *testing.T) {
	data := testData(t, "Hurricane/Uf30", 20000)
	codec := mustCodec(t, "posit32")
	cfg := smallCfg()
	cfg.Workers = 1

	fresh, err := RunRange(context.Background(), cfg, codec, "Hurricane/Uf30", data, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]Trial, len(fresh))
	got, err := RunRangeInto(context.Background(), cfg, codec, "Hurricane/Uf30", data, 4, 9, buf)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &buf[0] {
		t.Fatal("RunRangeInto did not fill the supplied buffer in place")
	}
	if !reflect.DeepEqual(fresh, got) {
		t.Fatal("buffered run differs from allocating run")
	}

	// Undersized buffer: falls back to allocation, same results.
	got2, err := RunRangeInto(context.Background(), cfg, codec, "Hurricane/Uf30", data, 4, 9, buf[:0:1])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, got2) {
		t.Fatal("undersized-buffer run differs from allocating run")
	}

	// Pooled path honors the buffer too.
	cfg.Workers = 4
	got3, err := RunRangeInto(context.Background(), cfg, codec, "Hurricane/Uf30", data, 4, 9, buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, got3) {
		t.Fatal("pooled buffered run differs from serial run")
	}
}

// TestRunRangeIntoOverwritesBuffer: every field of a reused buffer is
// rewritten, whatever it held. The runner refills one slab per worker
// with shards of any format, so a field an earlier shard left behind
// (a posit regime size on an IEEE trial) would leak into the results.
// CSV bytes cover every column and compare NaN, which
// reflect.DeepEqual cannot.
func TestRunRangeIntoOverwritesBuffer(t *testing.T) {
	data := testData(t, "Hurricane/Uf30", 20000)
	cfg := smallCfg()
	cfg.Workers = 1
	for _, name := range []string{"posit32", "ieee32"} {
		codec := mustCodec(t, name)
		fresh, err := RunRange(context.Background(), cfg, codec, "Hurricane/Uf30", data, 0, codec.Width())
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]Trial, len(fresh))
		for i := range buf {
			buf[i] = Trial{Field: "stale", Codec: "stale", Bit: -1, Seq: -1, Index: -1,
				OrigValue: math.NaN(), ReprValue: math.Inf(1), OrigBits: math.MaxUint64,
				FaultyBits: math.MaxUint64, FaultyVal: math.Inf(-1), FieldName: "stale",
				RegimeK: 99, AbsErr: -1, RelErr: -1, Catastrophic: !fresh[i].Catastrophic}
		}
		got, err := RunRangeInto(context.Background(), cfg, codec, "Hurricane/Uf30", data, 0, codec.Width(), buf)
		if err != nil {
			t.Fatal(err)
		}
		var want, have bytes.Buffer
		if err := WriteTrialsCSV(&want, fresh); err != nil {
			t.Fatal(err)
		}
		if err := WriteTrialsCSV(&have, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(have.Bytes(), want.Bytes()) {
			t.Fatalf("%s: refilled buffer renders differently from a fresh run", name)
		}
	}
}

// TestTrialErrorsAgainstOriginal pins the error definitions Trial's doc
// states: AbsErr and RelErr measure FaultyVal against OrigValue, not
// against the rounded ReprValue, and a zero original is catastrophic
// only when the flip makes it nonzero. posit8 rounds almost every
// float32 value, so the two references differ.
func TestTrialErrorsAgainstOriginal(t *testing.T) {
	data := testData(t, "Hurricane/Uf30", 2000)
	codec := mustCodec(t, "posit8")
	trials, err := RunRange(context.Background(), smallCfg(), codec, "Hurricane/Uf30", data, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	rounded := 0
	for _, tr := range trials {
		if tr.ReprValue == tr.OrigValue || tr.Catastrophic || tr.OrigValue == 0 {
			continue
		}
		rounded++
		abs := math.Abs(tr.OrigValue - tr.FaultyVal)
		if tr.AbsErr != abs || tr.RelErr != abs/math.Abs(tr.OrigValue) {
			t.Fatalf("errors not measured against OrigValue: %+v", tr)
		}
		if repr := math.Abs(tr.FaultyVal - tr.ReprValue); tr.AbsErr == repr {
			t.Fatalf("AbsErr equals |FaultyVal - ReprValue| %v for a rounded original: %+v", repr, tr)
		}
	}
	if rounded == 0 {
		t.Fatal("no posit8 trial with ReprValue != OrigValue")
	}

	// A zero original: every posit8 flip of 0 is nonzero or NaR, while
	// the ieee32 sign flip gives -0, which is no error at all.
	cfg := smallCfg()
	cfg.SkipZeros = false
	for _, name := range []string{"posit8", "ieee32"} {
		c := mustCodec(t, name)
		zeros, err := RunRange(context.Background(), cfg, c, "zero", []float64{0}, 0, c.Width())
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range zeros {
			signFlip := name == "ieee32" && tr.Bit == c.Width()-1
			if tr.Catastrophic == signFlip {
				t.Fatalf("%s bit %d of 0 -> %v: catastrophic %v", name, tr.Bit, tr.FaultyVal, tr.Catastrophic)
			}
			if signFlip && (tr.AbsErr != 0 || tr.RelErr != 0) {
				t.Fatalf("ieee32 0 -> -0 errors %v/%v, want 0/0", tr.AbsErr, tr.RelErr)
			}
			if !signFlip && !math.IsInf(tr.RelErr, 1) {
				t.Fatalf("%s bit %d of 0: RelErr %v, want +Inf", name, tr.Bit, tr.RelErr)
			}
		}
	}
}

// TestRunRangeSerialZeroAllocs pins the tentpole property of PR 9:
// with one worker and a reused buffer the campaign loop allocates
// nothing per call (BENCH_PR9.json carries the benchmark-grade
// number; this is the cheap regression tripwire).
func TestRunRangeSerialZeroAllocs(t *testing.T) {
	data := testData(t, "Hurricane/Uf30", 20000)
	codec := mustCodec(t, "posit32")
	cfg := smallCfg()
	cfg.Workers = 1
	ctx := context.Background()
	buf := make([]Trial, 2*cfg.TrialsPerBit)
	allocs := testing.AllocsPerRun(10, func() {
		var err error
		buf, err = RunRangeInto(ctx, cfg, codec, "Hurricane/Uf30", data, 3, 5, buf)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("serial RunRangeInto allocates %.1f per call, want 0", allocs)
	}
}

// drawPins are SHA-256 digests of WriteTrialsCSV over RunRange for
// every registered codec, in numfmt.Names() order, at N 4096, 16
// trials per bit and seed 11, keyed by field and SkipZeros. They were
// taken from the engine that seeded a full RNGFromHash stream for
// every trial, so any change to how runBit draws an element index,
// re-draws a zero or fills a trial moves them. CLOUDf48 is ~62% zeros
// and PRECIPf48 ~10%, so the zero re-draw path runs often on their
// SkipZeros trials; CESM/CLOUD draws no zero at this N, so its two
// digests agree.
var drawPins = map[string]string{
	"Hurricane/CLOUDf48 skip":  "c41b112d11e908009769579837537a8470096fcae15ddbfea49e04371e3b2b3d",
	"Hurricane/CLOUDf48 keep":  "a91abe704c38300e001babd44d5013ae07d4fe8bca42d16653fccd1c6a674437",
	"Hurricane/PRECIPf48 skip": "e6e83c75a29913aa907e5f22d2da3cf6b272c4aa23b452c7fce3b4cc1c70a405",
	"Hurricane/PRECIPf48 keep": "ee5a8714722b21a1399e0f8e5ac2f09dcff94819c0111ebac66c27140f944fb4",
	"CESM/CLOUD skip":          "4b12cefad1d3fb2a4ae9efe50d8fc978d9954f2307088996e78654ed45c31ac5",
	"CESM/CLOUD keep":          "4b12cefad1d3fb2a4ae9efe50d8fc978d9954f2307088996e78654ed45c31ac5",
}

// TestCampaignDrawsPinned: the trials of a campaign — every drawn
// index and every derived column — match the pinned digests.
func TestCampaignDrawsPinned(t *testing.T) {
	for _, field := range []string{"Hurricane/CLOUDf48", "Hurricane/PRECIPf48", "CESM/CLOUD"} {
		data := testData(t, field, 4096)
		for _, skip := range []bool{true, false} {
			cfg := DefaultConfig()
			cfg.Seed = 11
			cfg.TrialsPerBit = 16
			cfg.SkipZeros = skip
			h := sha256.New()
			for _, name := range numfmt.Names() {
				codec := mustCodec(t, name)
				trials, err := RunRange(context.Background(), cfg, codec, field, data, 0, codec.Width())
				if err != nil {
					t.Fatal(err)
				}
				if err := WriteTrialsCSV(h, trials); err != nil {
					t.Fatal(err)
				}
			}
			key := field + " keep"
			if skip {
				key = field + " skip"
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != drawPins[key] {
				t.Errorf("%s: trials sha256 %s, want %s", key, got, drawPins[key])
			}
		}
	}
}
