package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestSummarizeSmall(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.Count != 4 || s.Mean != 2.5 || s.Median != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Errorf("summary: %+v", s)
	}
	want := math.Sqrt(1.25) // population std of {1,2,3,4}
	if !almost(s.Std, want, 1e-12) {
		t.Errorf("std %v, want %v", s.Std, want)
	}
}

func TestSummarizeEmptyAndSpecial(t *testing.T) {
	s := Summarize(nil)
	if s.Count != 0 {
		t.Error("empty count")
	}
	s = Summarize([]float64{math.NaN(), math.Inf(1)})
	if !math.IsNaN(s.Mean) || !math.IsNaN(s.Median) {
		t.Error("all-special summary should be NaN")
	}
	// Specials are skipped, not poisoning.
	s = Summarize([]float64{1, math.NaN(), 3, math.Inf(-1)})
	if s.Mean != 2 || s.Min != 1 || s.Max != 3 {
		t.Errorf("special-skipping summary: %+v", s)
	}
}

// TestParallelMatchesSerial: the parallel reduction must equal a
// serial Welford pass on large arrays (determinism across the chunked
// merge).
func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := parallelThreshold*3 + 12345
	data := make([]float64, n)
	for i := range data {
		data[i] = rng.NormFloat64()*1e6 + 3
	}
	s := Summarize(data)
	var m moments = newMoments()
	for _, x := range data {
		m.add(x)
	}
	if !almost(s.Mean, m.mean, 1e-10) {
		t.Errorf("parallel mean %v vs serial %v", s.Mean, m.mean)
	}
	if !almost(s.Std, math.Sqrt(m.m2/float64(m.n)), 1e-9) {
		t.Errorf("parallel std %v", s.Std)
	}
	if s.Min != m.min || s.Max != m.max {
		t.Error("parallel min/max mismatch")
	}
	// Determinism: repeated runs identical.
	if s2 := Summarize(data); s2 != s {
		t.Error("Summarize not deterministic")
	}
}

func TestMedianAndQuantiles(t *testing.T) {
	if Median([]float64{3, 1, 2}) != 2 {
		t.Error("odd median")
	}
	if Median([]float64{4, 1, 3, 2}) != 2.5 {
		t.Error("even median")
	}
	if math.IsNaN(Median([]float64{5})) || Median([]float64{5}) != 5 {
		t.Error("single median")
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("empty median should be NaN")
	}
	data := []float64{10, 20, 30, 40, 50}
	if Quantile(data, 0) != 10 || Quantile(data, 1) != 50 {
		t.Error("extreme quantiles")
	}
	if Quantile(data, 0.25) != 20 || Quantile(data, 0.75) != 40 {
		t.Error("quartiles")
	}
	if Quantile(data, 0.125) != 15 {
		t.Errorf("interpolated quantile: %v", Quantile(data, 0.125))
	}
}

// TestQuantileAgainstSort: quickselect quantiles equal sort-based
// quantiles on random data.
func TestQuantileAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(500)
		data := make([]float64, n)
		for i := range data {
			data[i] = rng.NormFloat64()
		}
		q := rng.Float64()
		got := Quantile(data, q)
		sorted := append([]float64(nil), data...)
		sort.Float64s(sorted)
		pos := q * float64(n-1)
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		want := sorted[lo]
		if frac > 0 && lo+1 < n {
			want += frac * (sorted[lo+1] - sorted[lo])
		}
		if !almost(got, want, 1e-12) {
			t.Fatalf("quantile(%v) = %v, sorted ref %v (n=%d)", q, got, want, n)
		}
	}
}

// TestMedianPermutationInvariant (property): the median never depends
// on input order, and MedianInPlace, with special values mixed in for
// it to skip, returns the same value.
func TestMedianPermutationInvariant(t *testing.T) {
	f := func(data []float64) bool {
		clean := make([]float64, 0, len(data))
		for _, x := range data {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		m1 := Median(clean)
		shuffled := append([]float64(nil), clean...)
		rand.New(rand.NewSource(3)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		if Median(shuffled) != m1 {
			return false
		}
		mixed := append(shuffled, math.NaN(), math.Inf(1), math.Inf(-1))
		return MedianInPlace(mixed) == m1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBox(t *testing.T) {
	b := Box([]float64{1, 2, 3, 4, 5})
	if b.N != 5 || b.Low != 1 || b.Median != 3 || b.Hi != 5 || b.Q1 != 2 || b.Q3 != 4 {
		t.Errorf("box: %+v", b)
	}
	b = Box(nil)
	if b.N != 0 || !math.IsNaN(b.Median) {
		t.Error("empty box")
	}
	b = Box([]float64{math.Inf(1), 7})
	if b.N != 1 || b.Median != 7 {
		t.Error("box should skip specials")
	}
}

func TestGeoMean(t *testing.T) {
	if !almost(GeoMean([]float64{1, 100}), 10, 1e-12) {
		t.Errorf("geomean {1,100} = %v", GeoMean([]float64{1, 100}))
	}
	if !almost(GeoMean([]float64{2, 8, -5, 0}), 4, 1e-12) {
		t.Error("geomean should skip non-positive values")
	}
	if !math.IsNaN(GeoMean([]float64{-1, 0})) {
		t.Error("geomean of nothing positive should be NaN")
	}
}

func TestMeanMinMaxStd(t *testing.T) {
	data := []float64{2, 4, 6}
	if Mean(data) != 4 || Min(data) != 2 || Max(data) != 6 {
		t.Error("mean/min/max")
	}
	if !almost(Std(data), math.Sqrt(8.0/3), 1e-12) {
		t.Errorf("std %v", Std(data))
	}
	if !math.IsNaN(Std([]float64{math.NaN()})) {
		t.Error("std of specials should be NaN")
	}
}
