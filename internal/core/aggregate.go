package core

import (
	"math"
	"slices"
	"sort"
	"sync"

	"positres/internal/stats"
)

// BitAgg aggregates all trials at one bit position — one point on the
// paper's per-bit error curves (Figs. 3, 10, 11, 14, 16, 18).
type BitAgg struct {
	Bit    int // bit position, 0 = LSB
	Trials int // trials aggregated at this position
	// Catastrophic counts flips whose faulty value decoded to
	// NaN/Inf/NaR or turned a zero original nonzero (Trial.Catastrophic).
	Catastrophic int

	// MeanRelErr and the following aggregates summarize the
	// non-catastrophic trials only.
	MeanRelErr   float64
	MedianRelErr float64 // median relative error
	GeoRelErr    float64 // geometric mean relative error (zero errors floored)
	MaxRelErr    float64 // worst relative error
	MeanAbsErr   float64 // mean absolute error
	MedianAbsErr float64 // median absolute error
	MaxAbsErr    float64 // worst absolute error

	// Field attribution: fraction of trials whose flipped bit fell in
	// each field at this position (posit fields move per value).
	FieldShare map[string]float64
}

// AggregateByBit groups trials by bit position. Bits with no trials
// are omitted; results are sorted by bit. It is the one per-bit fold:
// the store persists its result in the .pts footer, so a summary read
// back from a store equals one computed over the trials, bit for bit.
// Means and maxima fold serially, so results do not depend on
// GOMAXPROCS; medians are exact.
func AggregateByBit(trials []Trial) []BitAgg {
	scratch := errBufs.Get().(*[]float64)
	defer errBufs.Put(scratch)
	folds := foldBy(trials, func(tr *Trial) int { return tr.Bit }, scratch)
	out := make([]BitAgg, 0, len(folds))
	for bit, f := range folds {
		out = append(out, f.agg(bit))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Bit < out[j].Bit })
	return out
}

// errBufs recycles the error scratch of the fold: every store append
// aggregates its shard, and a fresh copy of each shard's errors would
// set the GC pace of a whole campaign. A BitAgg holds no slice, so no
// result aliases the scratch after it returns to the pool.
var errBufs = sync.Pool{New: func() any { return new([]float64) }}

// aggFold accumulates one group of trials without copying them:
// counts and field tallies over every trial; moments and the errors
// themselves (for the geometric mean and the exact medians) over the
// non-catastrophic ones.
type aggFold struct {
	trials, catastrophic int
	fields               []fieldCount // one entry per field name seen, in first-seen order
	rel, abs             stats.Moments
	rels, abss           []float64
}

// fieldCount tallies the trials of one field name. A codec has at most
// four fields, so a linear scan of a fold's few entries is cheaper
// than hashing the name of every trial into a map.
type fieldCount struct {
	name string
	n    int
}

// foldBy folds trials into one aggFold per key in two passes over runs
// of one key; a shard is bit-major, so a run is usually a whole bit
// and costs one map lookup per pass. The first pass counts; each
// fold's error slices are then carved out of *scratch (grown if
// needed) at their exact size, and the second pass fills them in trial
// order. The folds alias *scratch until they are finalized.
func foldBy[K comparable](trials []Trial, key func(*Trial) K, scratch *[]float64) map[K]*aggFold {
	folds := map[K]*aggFold{}
	for i := 0; i < len(trials); {
		k := key(&trials[i])
		f := folds[k]
		if f == nil {
			f = &aggFold{fields: make([]fieldCount, 0, 4), rel: stats.NewMoments(), abs: stats.NewMoments()}
			folds[k] = f
		}
		for ; i < len(trials) && key(&trials[i]) == k; i++ {
			f.count(&trials[i])
		}
	}
	n := 0
	for _, f := range folds {
		n += f.trials - f.catastrophic
	}
	buf := slices.Grow((*scratch)[:0], 2*n)[:2*n]
	*scratch = buf[:0]
	for _, f := range folds {
		m := f.trials - f.catastrophic
		f.rels, f.abss, buf = buf[:0:m], buf[m:m:2*m], buf[2*m:]
	}
	for i := 0; i < len(trials); {
		k := key(&trials[i])
		f := folds[k]
		for ; i < len(trials) && key(&trials[i]) == k; i++ {
			f.measure(&trials[i])
		}
	}
	return folds
}

// count tallies one trial: every trial counts toward the field
// attribution, and catastrophic ones are set apart.
func (f *aggFold) count(tr *Trial) {
	f.trials++
	f.tally(tr.FieldName)
	if tr.Catastrophic {
		f.catastrophic++
	}
}

// tally counts one trial toward its field name.
func (f *aggFold) tally(name string) {
	for i := range f.fields {
		if f.fields[i].name == name {
			f.fields[i].n++
			return
		}
	}
	f.fields = append(f.fields, fieldCount{name: name, n: 1})
}

// measure folds one trial's errors in; only non-catastrophic trials
// count toward the error statistics.
func (f *aggFold) measure(tr *Trial) {
	if tr.Catastrophic {
		return
	}
	f.rel.Add(tr.RelErr)
	f.abs.Add(tr.AbsErr)
	f.rels = append(f.rels, tr.RelErr)
	f.abss = append(f.abss, tr.AbsErr)
}

// agg finalizes the fold into the aggregate of one bit position. It
// reorders the fold's error slices, so it runs once per fold.
func (f *aggFold) agg(bit int) BitAgg {
	a := BitAgg{Bit: bit, Trials: f.trials, Catastrophic: f.catastrophic,
		FieldShare: make(map[string]float64, len(f.fields))}
	for _, c := range f.fields {
		a.FieldShare[c.name] = float64(c.n) / float64(f.trials)
	}
	if len(f.rels) == 0 {
		nan := math.NaN()
		a.MeanRelErr, a.MedianRelErr, a.GeoRelErr, a.MaxRelErr = nan, nan, nan, nan
		a.MeanAbsErr, a.MedianAbsErr, a.MaxAbsErr = nan, nan, nan
		return a
	}
	a.MeanRelErr = f.rel.Mean()
	a.GeoRelErr = stats.GeoMean(f.rels) // sums in trial order: before the median reorders rels
	a.MedianRelErr = stats.MedianInPlace(f.rels)
	a.MaxRelErr = f.rel.Max()
	a.MeanAbsErr = f.abs.Mean()
	a.MedianAbsErr = stats.MedianInPlace(f.abss)
	a.MaxAbsErr = f.abs.Max()
	return a
}

// Filter returns the trials satisfying pred.
func Filter(trials []Trial, pred func(Trial) bool) []Trial {
	var out []Trial
	for _, tr := range trials {
		if pred(tr) {
			out = append(out, tr)
		}
	}
	return out
}

// MagnitudeAbove selects trials whose encoded value has |v| > 1 — the
// population of the paper's Fig. 11.
func MagnitudeAbove(trials []Trial) []Trial {
	return Filter(trials, func(tr Trial) bool { return math.Abs(tr.ReprValue) > 1 })
}

// MagnitudeBelow selects trials with 0 < |v| < 1 — Fig. 14's population.
func MagnitudeBelow(trials []Trial) []Trial {
	return Filter(trials, func(tr Trial) bool {
		a := math.Abs(tr.ReprValue)
		return a > 0 && a < 1
	})
}

// ByRegimeSize groups trials by the regime run length k of the
// original pattern (paper eq. 1 sorting, §5.4: "the equation to
// calculate regime size is implemented to sort results").
func ByRegimeSize(trials []Trial) map[int][]Trial {
	out := map[int][]Trial{}
	for _, tr := range trials {
		out[tr.RegimeK] = append(out[tr.RegimeK], tr)
	}
	return out
}

// RegimeCurve aggregates by bit within each regime-size bucket,
// producing the family of curves in Figs. 11 and 14.
func RegimeCurve(trials []Trial) map[int][]BitAgg {
	out := map[int][]BitAgg{}
	for k, ts := range ByRegimeSize(trials) {
		out[k] = AggregateByBit(ts)
	}
	return out
}

// SignBitErrors extracts the absolute errors of sign-bit flips grouped
// by regime size — the box-plot populations of Fig. 20.
func SignBitErrors(trials []Trial, width int) map[int][]float64 {
	out := map[int][]float64{}
	for _, tr := range trials {
		if tr.Bit != width-1 || tr.Catastrophic {
			continue
		}
		out[tr.RegimeK] = append(out[tr.RegimeK], tr.AbsErr)
	}
	return out
}

// SignBoxes renders the Fig. 20 five-number summaries per regime size,
// sorted by k.
func SignBoxes(trials []Trial, width int) []struct {
	K   int
	Box stats.BoxStats
} {
	errs := SignBitErrors(trials, width)
	ks := make([]int, 0, len(errs))
	for k := range errs {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	out := make([]struct {
		K   int
		Box stats.BoxStats
	}, 0, len(ks))
	for _, k := range ks {
		out = append(out, struct {
			K   int
			Box stats.BoxStats
		}{k, stats.Box(errs[k])})
	}
	return out
}

// FieldErrorSummary groups trials by the name of the flipped field and
// summarizes each group with the same fold as AggregateByBit — the
// paper's §5 narrative (regime vs exponent vs fraction vs sign).
func FieldErrorSummary(trials []Trial) map[string]BitAgg {
	scratch := errBufs.Get().(*[]float64)
	defer errBufs.Put(scratch)
	folds := foldBy(trials, func(tr *Trial) string { return tr.FieldName }, scratch)
	out := make(map[string]BitAgg, len(folds))
	for name, f := range folds {
		out[name] = f.agg(-1)
	}
	return out
}
