// Package stats provides the summary statistics the campaign computes
// for its baselines and faulty arrays (paper §4.1–4.2): mean, median,
// min, max and standard deviation, plus quantiles and histograms used
// by the analysis. Large arrays are reduced in parallel with a
// fixed-size worker pool; results are identical at any worker count.
package stats

import (
	"math"
	"runtime"
	"sort"
	"sync"
)

// Summary holds the per-field statistics reported in the paper's
// Table 1.
type Summary struct {
	Count  int     // finite elements summarized
	Mean   float64 // arithmetic mean
	Median float64 // 50th percentile
	Min    float64 // smallest element
	Max    float64 // largest element
	Std    float64 // population standard deviation, as QCAT reports
}

// Summarize computes a Summary over data. NaN and ±Inf elements are
// counted but excluded from the moments (a faulty array may contain a
// single special value; the paper's statistics functions skip it).
func Summarize(data []float64) Summary {
	s := Summary{Count: len(data)}
	if len(data) == 0 {
		return s
	}
	m := reduceMoments(data)
	if m.n == 0 {
		s.Min, s.Max = math.NaN(), math.NaN()
		s.Mean, s.Std, s.Median = math.NaN(), math.NaN(), math.NaN()
		return s
	}
	s.Min, s.Max = m.min, m.max
	s.Mean = m.mean
	s.Std = math.Sqrt(m.m2 / float64(m.n))
	s.Median = Median(data)
	return s
}

// moments is a Chan-style mergeable moment accumulator (Welford /
// Chan et al. parallel variance).
type moments struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

func newMoments() moments {
	return moments{min: math.Inf(1), max: math.Inf(-1)}
}

func (m *moments) add(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return
	}
	m.n++
	d := x - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (x - m.mean)
	if x < m.min {
		m.min = x
	}
	if x > m.max {
		m.max = x
	}
}

// merge combines two accumulators (Chan et al. pairwise update).
func (m *moments) merge(o moments) {
	if o.n == 0 {
		return
	}
	if m.n == 0 {
		*m = o
		return
	}
	n := m.n + o.n
	d := o.mean - m.mean
	m.m2 += o.m2 + d*d*float64(m.n)*float64(o.n)/float64(n)
	m.mean += d * float64(o.n) / float64(n)
	m.n = n
	if o.min < m.min {
		m.min = o.min
	}
	if o.max > m.max {
		m.max = o.max
	}
}

// Moments is the exported face of the moment accumulator, for callers
// that fold values in one at a time rather than over a materialized
// slice — core's per-bit aggregation. Add is the same serial Welford
// update that reduceMoments applies below parallelThreshold, so a
// Moments fed values in slice order reproduces Mean and Max
// bit-for-bit there; above it, Moments stays serial and so, unlike
// Mean, does not depend on GOMAXPROCS. The zero value is NOT ready to
// use; call NewMoments.
type Moments struct{ m moments }

// NewMoments returns an empty accumulator (min +Inf, max -Inf).
func NewMoments() Moments { return Moments{m: newMoments()} }

// Add folds one value in. NaN and ±Inf are skipped, matching
// Summarize's treatment of special values.
func (a *Moments) Add(x float64) { a.m.add(x) }

// Mean returns the running arithmetic mean (0 when empty, like the
// zero moments struct).
func (a *Moments) Mean() float64 { return a.m.mean }

// Max returns the largest value seen (-Inf when empty).
func (a *Moments) Max() float64 { return a.m.max }

// parallelThreshold is the array size below which reduction runs
// serially (goroutine startup costs more than the work).
const parallelThreshold = 1 << 16

func reduceMoments(data []float64) moments {
	if len(data) < parallelThreshold {
		m := newMoments()
		for _, x := range data {
			m.add(x)
		}
		return m
	}
	workers := runtime.GOMAXPROCS(0)
	chunk := (len(data) + workers - 1) / workers
	parts := make([]moments, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= len(data) {
			break
		}
		hi := lo + chunk
		if hi > len(data) {
			hi = len(data)
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			m := newMoments()
			for _, x := range data[lo:hi] {
				m.add(x)
			}
			parts[w] = m
		}(w, lo, hi)
	}
	wg.Wait()
	// Merge in fixed order so the result is deterministic.
	total := newMoments()
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

// Mean returns the arithmetic mean of the finite elements.
func Mean(data []float64) float64 { return reduceMoments(data).mean }

// Min returns the smallest finite element (+Inf if none).
func Min(data []float64) float64 { return reduceMoments(data).min }

// Max returns the largest finite element (-Inf if none).
func Max(data []float64) float64 { return reduceMoments(data).max }

// Std returns the population standard deviation of the finite elements.
func Std(data []float64) float64 {
	m := reduceMoments(data)
	if m.n == 0 {
		return math.NaN()
	}
	return math.Sqrt(m.m2 / float64(m.n))
}

// Median returns the exact median of the finite elements, using
// quickselect (expected O(n), no full sort).
func Median(data []float64) float64 {
	return Quantile(data, 0.5)
}

// MedianInPlace is Median for a caller that is done with data: it
// selects among the finite elements in place, reordering data instead
// of copying it. The result is Median's, bit for bit.
func MedianInPlace(data []float64) float64 {
	return quantileInto(data[:0], data, 0.5)
}

// Quantile returns the q-th quantile (0 <= q <= 1) of the finite
// elements using linear interpolation between order statistics.
func Quantile(data []float64, q float64) float64 {
	return quantileInto(make([]float64, 0, len(data)), data, q)
}

// quantileInto gathers data's finite elements into finite, which may
// alias data (the gather only ever writes behind its read position),
// and returns their q-th quantile.
func quantileInto(finite, data []float64, q float64) float64 {
	for _, x := range data {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			finite = append(finite, x)
		}
	}
	if len(finite) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		v, _ := selectKth(finite, 0)
		return v
	}
	if q >= 1 {
		v, _ := selectKth(finite, len(finite)-1)
		return v
	}
	pos := q * float64(len(finite)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	vlo, rest := selectKth(finite, lo)
	if frac == 0 {
		return vlo
	}
	// The next order statistic is the minimum of the right partition.
	vhi := rest[0]
	for _, x := range rest {
		if x < vhi {
			vhi = x
		}
	}
	return vlo + frac*(vhi-vlo)
}

// selectKth partially partitions data (in place) around its k-th order
// statistic and returns that value plus the slice of elements at
// positions > k (useful for interpolated quantiles). It uses three-way
// (Dutch national flag) partitioning so duplicate-heavy inputs — e.g.
// fields that are mostly exact zeros, like Hurricane/CLOUDf48 — stay
// O(n) instead of degrading quadratically.
func selectKth(data []float64, k int) (float64, []float64) {
	lo, hi := 0, len(data)-1
	for lo < hi {
		lt, gt := partition3(data, lo, hi)
		switch {
		case k < lt:
			hi = lt - 1
		case k > gt:
			lo = gt + 1
		default:
			// k lands inside the run of pivot-equal elements.
			return data[k], data[k+1:]
		}
	}
	return data[k], data[k+1:]
}

// partition3 partitions data[lo..hi] into < pivot, == pivot, > pivot
// regions and returns the bounds [lt, gt] of the equal region.
func partition3(data []float64, lo, hi int) (int, int) {
	mid := lo + (hi-lo)/2
	// Median-of-three pivot to dodge adversarial orderings.
	if data[mid] < data[lo] {
		data[mid], data[lo] = data[lo], data[mid]
	}
	if data[hi] < data[lo] {
		data[hi], data[lo] = data[lo], data[hi]
	}
	if data[hi] < data[mid] {
		data[hi], data[mid] = data[mid], data[hi]
	}
	pivot := data[mid]
	lt, i, gt := lo, lo, hi
	for i <= gt {
		switch {
		case data[i] < pivot:
			data[lt], data[i] = data[i], data[lt]
			lt++
			i++
		case data[i] > pivot:
			data[i], data[gt] = data[gt], data[i]
			gt--
		default:
			i++
		}
	}
	return lt, gt
}

// BoxStats holds the five-number summary used by the paper's box plot
// (Fig. 20), plus the count.
type BoxStats struct {
	N                       int     // finite elements included
	Low, Q1, Median, Q3, Hi float64 // whisker low, quartiles, whisker high
}

// Box computes the five-number summary of the finite elements.
func Box(data []float64) BoxStats {
	finite := make([]float64, 0, len(data))
	for _, x := range data {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			finite = append(finite, x)
		}
	}
	b := BoxStats{N: len(finite)}
	if len(finite) == 0 {
		b.Low, b.Q1, b.Median, b.Q3, b.Hi = math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN()
		return b
	}
	sort.Float64s(finite)
	q := func(p float64) float64 {
		pos := p * float64(len(finite)-1)
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		if lo+1 >= len(finite) {
			return finite[len(finite)-1]
		}
		return finite[lo] + frac*(finite[lo+1]-finite[lo])
	}
	b.Low, b.Q1, b.Median, b.Q3, b.Hi = finite[0], q(0.25), q(0.5), q(0.75), finite[len(finite)-1]
	return b
}

// GeoMean returns the geometric mean of the positive finite elements —
// the right average for error magnitudes spanning many decades.
func GeoMean(data []float64) float64 {
	var sum float64
	var n int
	for _, x := range data {
		if x > 0 && !math.IsInf(x, 0) {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return math.Exp(sum / float64(n))
}
