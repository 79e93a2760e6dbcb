package sdrbench

import (
	"bytes"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"positres/internal/stats"
)

const statSample = 200000

// TestFieldRegistry sanity-checks the Table 1 inventory.
func TestFieldRegistry(t *testing.T) {
	fs := Fields()
	if len(fs) != 16 {
		t.Fatalf("expected 16 fields (Table 1), got %d", len(fs))
	}
	if got := len(Datasets()); got != 5 {
		t.Errorf("expected 5 datasets, got %d", got)
	}
	seen := map[string]bool{}
	for _, f := range fs {
		if seen[f.Key()] {
			t.Errorf("duplicate field key %s", f.Key())
		}
		seen[f.Key()] = true
	}
	if _, err := Lookup("nope/nothing"); err == nil {
		t.Error("Lookup of unknown field should fail")
	}
	if f, err := Lookup("hacc/VX"); err != nil || f.Name != "vx" {
		t.Error("Lookup should be case-insensitive")
	}
}

// TestGenerateDeterministic: same (field, seed, n) → identical bytes;
// different seeds or fields → different data.
func TestGenerateDeterministic(t *testing.T) {
	f, _ := Lookup("Hurricane/Uf30")
	a := f.Generate(10000, 42)
	b := f.Generate(10000, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := f.Generate(10000, 43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should give different data")
	}
	g, _ := Lookup("Hurricane/Vf30")
	d := g.Generate(10000, 42)
	same = true
	for i := range a {
		if a[i] != d[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different fields should give different data")
	}
	// A prefix of a longer generation matches a shorter one.
	long := f.Generate(20000, 42)
	for i := range a {
		if long[i] != a[i] {
			t.Fatal("generation is not prefix-stable")
		}
	}
}

// ratio returns how far x is from target in multiplicative terms.
func ratio(x, target float64) float64 {
	if target == 0 {
		return math.Abs(x)
	}
	r := math.Abs(x / target)
	if r < 1 && r > 0 {
		r = 1 / r
	}
	return r
}

// TestGeneratedStatsMatchTable1: every field's synthetic sample must
// land near the paper's Table 1 statistics. Medians and standard
// deviations (which set the posit regime-size distribution, the
// property the experiments depend on) must match within ×3; extremes
// must stay inside the paper's bounds and reach a comparable
// magnitude.
func TestGeneratedStatsMatchTable1(t *testing.T) {
	for _, f := range Fields() {
		f := f
		t.Run(f.Dataset+"_"+f.Name, func(t *testing.T) {
			t.Parallel()
			data := ToFloat64(f.Generate(statSample, 42))
			s := stats.Summarize(data)
			tgt := f.Target

			for _, v := range data {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatal("generator produced a non-finite value")
				}
			}
			// Bounds: never exceed the paper's observed range (with a
			// hair of float32 slack).
			if s.Max > tgt.Max*1.001+1e-12 {
				t.Errorf("max %g exceeds target %g", s.Max, tgt.Max)
			}
			if tgt.Min <= 0 && s.Min < tgt.Min*1.001-1e-12 {
				t.Errorf("min %g below target %g", s.Min, tgt.Min)
			}
			// Median: matching scale (tolerate ×3), and matching sign
			// when the target is meaningfully nonzero.
			switch {
			case tgt.Median == 0:
				if math.Abs(s.Median) > 1e-12 {
					t.Errorf("median %g, want 0", s.Median)
				}
			case math.Abs(tgt.Median) < 0.01*tgt.Std:
				// A median this close to zero relative to the spread is
				// below the sampling noise of a 200k-element median;
				// only require it to stay near zero on the same scale.
				if math.Abs(s.Median) > 0.02*tgt.Std {
					t.Errorf("median %g not near zero (target %g, std %g)", s.Median, tgt.Median, tgt.Std)
				}
			default:
				if r := ratio(s.Median, tgt.Median); r > 3 {
					t.Errorf("median %g vs target %g (ratio %.1f)", s.Median, tgt.Median, r)
				}
				if s.Median*tgt.Median < 0 {
					t.Errorf("median sign: got %g, want sign of %g", s.Median, tgt.Median)
				}
			}
			// Standard deviation within ×3.
			if r := ratio(s.Std, tgt.Std); r > 3 {
				t.Errorf("std %g vs target %g (ratio %.1f)", s.Std, tgt.Std, r)
			}
			// Extremes reach at least a tenth of the target magnitude
			// (the sample is ~1000× smaller than the original field, so
			// deep tails are under-sampled).
			if tgt.Max > 0 && s.Max < tgt.Max/10 {
				t.Errorf("max %g too far below target %g", s.Max, tgt.Max)
			}
			// A negative target min that is vanishingly small relative
			// to the spread (e.g. CESM/CLOUD's -1.14e-17) is float32
			// noise in the original data, not structure.
			if tgt.Min < -1e-6*tgt.Std && s.Min > tgt.Min/10 {
				t.Errorf("min %g too far above target %g", s.Min, tgt.Min)
			}
		})
	}
}

// TestZeroMassFields: the two fields whose Table 1 median/min are
// exactly zero must contain exact zeros.
func TestZeroMassFields(t *testing.T) {
	for _, key := range []string{"Hurricane/PRECIPf48", "Hurricane/CLOUDf48"} {
		f, err := Lookup(key)
		if err != nil {
			t.Fatal(err)
		}
		data := f.Generate(50000, 1)
		zeros := 0
		for _, v := range data {
			if v == 0 {
				zeros++
			}
			if v < 0 {
				t.Fatalf("%s: negative value %g in a non-negative field", key, v)
			}
		}
		if zeros == 0 {
			t.Errorf("%s: expected exact zeros", key)
		}
	}
}

// TestRawIO: write/read round trip preserves bits, including negative
// zero and values at the float32 extremes.
func TestRawIO(t *testing.T) {
	data := []float32{0, float32(math.Copysign(0, -1)), 1.5, -2.25e-30, 3.4e38, 1e-45, -7}
	var buf bytes.Buffer
	if err := WriteRaw(&buf, data); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 4*len(data) {
		t.Fatalf("encoded %d bytes, want %d", buf.Len(), 4*len(data))
	}
	back, err := ReadRaw(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(data) {
		t.Fatalf("read %d values, want %d", len(back), len(data))
	}
	for i := range data {
		if math.Float32bits(back[i]) != math.Float32bits(data[i]) {
			t.Errorf("element %d: %x vs %x", i, math.Float32bits(back[i]), math.Float32bits(data[i]))
		}
	}
}

func TestRawIOFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "field.f32")
	f, _ := Lookup("CESM/CLOUD")
	data := f.Generate(1000, 9)
	if err := WriteRawFile(path, data); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRawFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if back[i] != data[i] {
			t.Fatalf("file round trip mismatch at %d", i)
		}
	}
	if _, err := ReadRawFile(filepath.Join(dir, "missing.f32")); err == nil {
		t.Error("reading a missing file should fail")
	}
	// Truncated file: not a multiple of 4 bytes.
	if err := os.WriteFile(filepath.Join(dir, "trunc.f32"), []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRawFile(filepath.Join(dir, "trunc.f32")); err == nil {
		t.Error("reading a truncated file should fail")
	}
}

func TestToFloat64(t *testing.T) {
	in := []float32{1.5, -2, 0}
	out := ToFloat64(in)
	if len(out) != 3 || out[0] != 1.5 || out[1] != -2 || out[2] != 0 {
		t.Errorf("ToFloat64 = %v", out)
	}
}

// TestRNGStreams: labeled streams are independent and deterministic.
func TestRNGStreams(t *testing.T) {
	a := NewRNG(1, "x")
	b := NewRNG(1, "x")
	c := NewRNG(1, "y")
	d := NewRNG(2, "x")
	for i := 0; i < 100; i++ {
		va := a.Uint64()
		if va != b.Uint64() {
			t.Fatal("same stream diverged")
		}
		if va == c.Uint64() && va == d.Uint64() {
			t.Fatal("streams look identical")
		}
	}
	// Multi-label streams differ from concatenated labels.
	e := NewRNG(1, "ab", "c")
	f := NewRNG(1, "a", "bc")
	same := true
	for i := 0; i < 10; i++ {
		if e.Uint64() != f.Uint64() {
			same = false
			break
		}
	}
	if same {
		t.Error("label separator is not effective")
	}
}

// TestLabelHashEquivalence: the precomputed-hash fast path used by the
// campaign hot loop must reproduce NewRNG's streams bit for bit —
// journaled campaigns replay through these streams, so any divergence
// silently changes every result.
func TestLabelHashEquivalence(t *testing.T) {
	cases := [][]string{
		{"Nyx/temperature", "posit32", "bit17", "42"},
		{"x"},
		{},
		{"", ""},
		{"HACC/vx", "ieee32", "bit0", "0"},
	}
	for _, labels := range cases {
		want := NewRNG(7, labels...)
		got := RNGFromHash(7, NewLabelHash(labels...))
		for i := 0; i < 64; i++ {
			if want.Uint64() != got.Uint64() {
				t.Fatalf("RNGFromHash diverged from NewRNG for labels %q", labels)
			}
		}
	}
	// WithInt must hash exactly like the decimal string label.
	ints := []int{0, 1, 9, 10, 99, 313, 65535, 1 << 30, -1, -313}
	for _, n := range ints {
		a := NewLabelHash("prefix").WithInt(n)
		b := NewLabelHash("prefix").WithLabel(strconv.Itoa(n))
		if a != b {
			t.Errorf("WithInt(%d) = %#x, WithLabel(%q) = %#x", n, a, strconv.Itoa(n), b)
		}
	}
	// Prefix reuse: extending a saved prefix equals flat hashing.
	base := NewLabelHash("f", "c").WithLabel("bit3")
	if base.WithInt(12) != NewLabelHash("f", "c", "bit3", "12") {
		t.Error("prefix extension diverged from flat label list")
	}
}

// refIntn is Intn as first written — the (-n) % n threshold computed
// on every call — kept as the reference the shared accept step must
// reproduce draw for draw.
func refIntn(r *RNG, n int) int {
	un := uint64(n)
	threshold := (-un) % un
	for {
		hi, lo := bits.Mul64(r.Uint64(), un)
		if lo >= threshold {
			return int(hi)
		}
	}
}

// TestFirstIntnMatchesStream: over 2·10⁵ per-trial label hashes per n,
// FirstIntn equals RNGFromHash(…).Intn(n) whenever it answers, and
// declines exactly when the stream's first draw is rejected. Intn
// itself must match refIntn. At n = 3<<61 about a quarter of first
// draws are rejected, so the fallback is exercised, not assumed.
func TestFirstIntnMatchesStream(t *testing.T) {
	const draws = 200000
	base := NewLabelHash("Hurricane/CLOUDf48", "posit32", "bit17")
	for _, n := range []int{1, 7, 5e4, 1e5, 512 * 512 * 512, 3 << 61} {
		rejected := 0
		for seq := 0; seq < draws; seq++ {
			h := base.WithInt(seq)
			seed := uint64(seq % 5)
			got, ok := FirstIntn(seed, h, n)
			stream := RNGFromHash(seed, h)
			_, lo := bits.Mul64(stream.Uint64(), uint64(n))
			if reject := lo < (-uint64(n))%uint64(n); ok == reject {
				t.Fatalf("n=%d seq %d: FirstIntn ok=%v, first draw rejected=%v", n, seq, ok, reject)
			}
			full, ref := RNGFromHash(seed, h), RNGFromHash(seed, h)
			want := full.Intn(n)
			if r := refIntn(&ref, n); want != r {
				t.Fatalf("n=%d seq %d: Intn = %d, reference %d", n, seq, want, r)
			}
			if !ok {
				rejected++
				continue
			}
			if got != want {
				t.Fatalf("n=%d seq %d: FirstIntn = %d, stream Intn = %d", n, seq, got, want)
			}
		}
		if n == 3<<61 && rejected == 0 {
			t.Errorf("n=%d: no first draw rejected in %d; the fallback went untested", n, draws)
		}
	}
}

// TestRNGDistributions: basic moment checks for the variate
// generators.
func TestRNGDistributions(t *testing.T) {
	r := NewRNG(7)
	const n = 200000
	var sumU, sumN, sumN2, sumE float64
	for i := 0; i < n; i++ {
		sumU += r.Float64()
		x := r.NormFloat64()
		sumN += x
		sumN2 += x * x
		sumE += r.ExpFloat64()
	}
	if m := sumU / n; math.Abs(m-0.5) > 0.01 {
		t.Errorf("uniform mean %v", m)
	}
	if m := sumN / n; math.Abs(m) > 0.02 {
		t.Errorf("normal mean %v", m)
	}
	if v := sumN2 / n; math.Abs(v-1) > 0.03 {
		t.Errorf("normal variance %v", v)
	}
	if m := sumE / n; math.Abs(m-1) > 0.02 {
		t.Errorf("exponential mean %v", m)
	}
	// Intn bounds and coverage.
	counts := make([]int, 7)
	for i := 0; i < 7000; i++ {
		counts[r.Intn(7)]++
	}
	for v, c := range counts {
		if c == 0 {
			t.Errorf("Intn never produced %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

// TestLogNormalMedian: LogNormal's median is exp(mu).
func TestLogNormalMedian(t *testing.T) {
	r := NewRNG(11)
	data := make([]float64, 50000)
	for i := range data {
		data[i] = r.LogNormal(2, 0.7)
	}
	med := stats.Median(data)
	if math.Abs(med-math.Exp(2))/math.Exp(2) > 0.05 {
		t.Errorf("lognormal median %v, want ~%v", med, math.Exp(2))
	}
}
