// Package figures regenerates every table and figure of the paper's
// evaluation (§5) from the campaign engine, rendering them as text
// charts and TSV series. Each builder corresponds to one experiment in
// DESIGN.md §4 and is exercised by one benchmark in bench_test.go.
package figures

import (
	"context"
	"fmt"
	"math"
	"sort"

	"positres/internal/analysis"
	"positres/internal/core"
	"positres/internal/ieee754"
	"positres/internal/numfmt"
	"positres/internal/posit"
	"positres/internal/sdrbench"
	"positres/internal/stats"
	"positres/internal/textplot"
)

// Budget scales an experiment: the synthetic dataset size per field
// and the fault-injection trials per bit position.
type Budget struct {
	DatasetN     int    // synthetic elements generated per field
	TrialsPerBit int    // fault-injection trials per bit position
	Seed         uint64 // PRNG seed for data generation and sampling
}

// PaperBudget reproduces the paper's trial counts (313 per bit). The
// dataset sample is 2M elements per field — smaller than the original
// fields (up to 280M) but far larger than the ~10k values a campaign
// actually touches.
var PaperBudget = Budget{DatasetN: 2_000_000, TrialsPerBit: 313, Seed: 1}

// QuickBudget runs every figure in well under a second for tests,
// benchmarks and the quickstart example.
var QuickBudget = Budget{DatasetN: 100_000, TrialsPerBit: 80, Seed: 1}

func (b Budget) campaignCfg() core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = b.Seed
	cfg.TrialsPerBit = b.TrialsPerBit
	return cfg
}

func mustCodec(name string) numfmt.Codec {
	c, err := numfmt.Lookup(name)
	if err != nil {
		panic(err)
	}
	return c
}

// datasets memoizes synthetic fields across figure builders: one
// report reads the same (field, n, seed) several times, and generation
// dominates the wall clock at paper scale. It holds one budget's worth
// of the Table 1 fields.
var datasets = sdrbench.NewCache(len(sdrbench.Fields()), nil)

func fieldData(b Budget, key string) []float64 {
	f, err := sdrbench.Lookup(key)
	if err != nil {
		panic(err)
	}
	return datasets.Get(f, b.DatasetN, b.Seed)
}

// runField executes the campaign for one codec on one field.
func runField(b Budget, codecName, key string) *core.Result {
	r, err := core.Run(context.Background(), b.campaignCfg(), mustCodec(codecName), key, fieldData(b, key))
	if err != nil {
		panic(err)
	}
	return r
}

// meanRelSeries converts per-bit aggregates to a plot series using the
// mean relative error (the paper's Fig. 10 metric).
func meanRelSeries(name string, aggs []core.BitAgg) textplot.Series {
	s := textplot.Series{Name: name}
	for _, a := range aggs {
		s.X = append(s.X, float64(a.Bit))
		s.Y = append(s.Y, a.MeanRelErr)
	}
	return s
}

func meanAbsSeries(name string, aggs []core.BitAgg) textplot.Series {
	s := textplot.Series{Name: name}
	for _, a := range aggs {
		s.X = append(s.X, float64(a.Bit))
		s.Y = append(s.Y, a.MeanAbsErr)
	}
	return s
}

// Table1 regenerates the dataset summary table from the synthetic
// fields, alongside the paper's reported values for comparison.
func Table1(b Budget) *textplot.Table {
	t := &textplot.Table{Header: []string{
		"Dataset", "Field", "N(sample)",
		"Mean", "Median", "Max", "Min", "Std",
		"paper:Mean", "paper:Median", "paper:Max", "paper:Min", "paper:Std",
	}}
	for _, f := range sdrbench.Fields() {
		data := sdrbench.ToFloat64(f.Generate(b.DatasetN, b.Seed))
		s := stats.Summarize(data)
		t.AddRow(f.Dataset, f.Name, fmt.Sprintf("%d", len(data)),
			fmt.Sprintf("%.2E", s.Mean), fmt.Sprintf("%.2E", s.Median),
			fmt.Sprintf("%.2E", s.Max), fmt.Sprintf("%.2E", s.Min),
			fmt.Sprintf("%.2E", s.Std),
			fmt.Sprintf("%.2E", f.Target.Mean), fmt.Sprintf("%.2E", f.Target.Median),
			fmt.Sprintf("%.2E", f.Target.Max), fmt.Sprintf("%.2E", f.Target.Min),
			fmt.Sprintf("%.2E", f.Target.Std))
	}
	return t
}

// Fig3 sweeps every bit of the IEEE-754 binary32 encoding of 186.25
// and plots the relative error per position (paper Fig. 3).
func Fig3() *textplot.LineChart {
	ieee32 := mustCodec("ieee32")
	sweep := analysis.Sweep(ieee32, ieee32.Encode(186.25))
	s := textplot.Series{Name: "ieee32 186.25"}
	for _, fl := range sweep {
		s.X = append(s.X, float64(fl.Pos))
		y := fl.RelErr
		if fl.Catastrophic {
			y = math.Inf(1) // skipped by the log plot, as in the paper
		}
		s.Y = append(s.Y, y)
	}
	return &textplot.LineChart{
		Title:  "Fig 3: relative error per flipped bit, 186.25 in IEEE-754 binary32",
		XLabel: "bit position (0 = LSB)",
		YLabel: "relative error",
		LogY:   true,
		Series: []textplot.Series{s},
	}
}

// Fig7 plots the decimal-accuracy-vs-magnitude profile of posit32 and
// binary32 (paper Fig. 7).
func Fig7() *textplot.LineChart {
	prof := analysis.DecimalAccuracyProfile(posit.Std32, ieee754.Binary32)
	var p, i textplot.Series
	p.Name, i.Name = "posit32", "ieee32"
	for _, pt := range prof {
		p.X = append(p.X, float64(pt.Scale))
		p.Y = append(p.Y, pt.PositDigits)
		i.X = append(i.X, float64(pt.Scale))
		i.Y = append(i.Y, pt.IEEEDigits)
	}
	return &textplot.LineChart{
		Title:  "Fig 7: decimal digits of accuracy vs binary scale",
		XLabel: "log2 |value|",
		YLabel: "decimal digits",
		Series: []textplot.Series{p, i},
	}
}

// Fig10Fields are the fields plotted in the paper's Fig. 10.
var Fig10Fields = []string{"Nyx/temperature", "Nyx/velocity-x", "CESM/RELHUM", "CESM/CLOUD"}

// Fig10 compares posit32 and ieee32 mean relative error per bit on
// Nyx and CESM fields (paper Fig. 10).
func Fig10(b Budget) *textplot.LineChart {
	c := &textplot.LineChart{
		Title:  "Fig 10: posit vs IEEE-754 mean relative error per bit (Nyx, CESM)",
		XLabel: "bit position (0 = LSB)",
		YLabel: "mean relative error",
		LogY:   true,
		Height: 24,
	}
	for _, key := range Fig10Fields {
		for _, codec := range []string{"posit32", "ieee32"} {
			r := runField(b, codec, key)
			c.Series = append(c.Series, meanRelSeries(codec+" "+key, core.AggregateByBit(r.Trials)))
		}
	}
	return c
}

// regimeBucketChart builds the Fig. 11/14 family: per-bit mean
// relative error within each regime-size bucket.
func regimeBucketChart(b Budget, key, title string, above bool, kMin, kMax int) *textplot.LineChart {
	r := runField(b, "posit32", key)
	trials := r.Trials
	if above {
		trials = core.MagnitudeAbove(trials)
	} else {
		trials = core.MagnitudeBelow(trials)
	}
	curves := core.RegimeCurve(trials)
	ks := make([]int, 0, len(curves))
	for k := range curves {
		if k >= kMin && k <= kMax {
			ks = append(ks, k)
		}
	}
	sort.Ints(ks)
	c := &textplot.LineChart{
		Title:  title,
		XLabel: "bit position (0 = LSB)",
		YLabel: "mean relative error",
		LogY:   true,
		Height: 24,
	}
	for _, k := range ks {
		c.Series = append(c.Series, meanRelSeries(fmt.Sprintf("k=%d", k), curves[k]))
	}
	return c
}

// Fig11 plots error per bit for posits with |v| > 1, bucketed by
// regime size (paper Fig. 11): the R_k spike walks down with k.
func Fig11(b Budget) *textplot.LineChart {
	return regimeBucketChart(b, "Nyx/temperature",
		"Fig 11: avg relative error, posits with |v| > 1, by regime size", true, 1, 6)
}

// Fig14 plots the same for |v| < 1 (paper Fig. 14): no R_k spike, the
// relative error plateaus near 1.
func Fig14(b Budget) *textplot.LineChart {
	return regimeBucketChart(b, "CESM/CLOUD",
		"Fig 14: avg relative error, posits with |v| < 1, by regime size", false, 2, 6)
}

// Fig16 plots fraction-bit relative error for k=1 posits from HACC and
// Hurricane (paper Fig. 16): error doubles per bit toward the MSB.
func Fig16(b Budget) *textplot.LineChart {
	c := &textplot.LineChart{
		Title:  "Fig 16: relative error in the fraction (k=1 posits, HACC & Hurricane)",
		XLabel: "bit position (0 = LSB)",
		YLabel: "mean relative error",
		LogY:   true,
	}
	for _, key := range []string{"HACC/vx", "Hurricane/Uf30"} {
		r := runField(b, "posit32", key)
		k1 := core.Filter(r.Trials, func(tr core.Trial) bool {
			return tr.RegimeK == 1 && tr.FieldName == "fraction"
		})
		c.Series = append(c.Series, meanRelSeries(key, core.AggregateByBit(k1)))
	}
	return c
}

// Fig18 plots exponent-bit vs fraction-bit error for k=1 posits
// (paper Fig. 18): the trend continues smoothly through the exponent.
func Fig18(b Budget) *textplot.LineChart {
	r := runField(b, "posit32", "Hurricane/Vf30")
	k1 := core.Filter(r.Trials, func(tr core.Trial) bool {
		return tr.RegimeK == 1 && (tr.FieldName == "fraction" || tr.FieldName == "exponent")
	})
	frac := core.Filter(k1, func(tr core.Trial) bool { return tr.FieldName == "fraction" })
	exp := core.Filter(k1, func(tr core.Trial) bool { return tr.FieldName == "exponent" })
	return &textplot.LineChart{
		Title:  "Fig 18: relative error in exponent vs fraction (k=1 posits)",
		XLabel: "bit position (0 = LSB)",
		YLabel: "mean relative error",
		LogY:   true,
		Series: []textplot.Series{
			meanRelSeries("fraction", core.AggregateByBit(frac)),
			meanRelSeries("exponent", core.AggregateByBit(exp)),
		},
	}
}

// Fig20 renders the sign-bit absolute-error box plot by regime size
// (paper Fig. 20).
func Fig20(b Budget) *textplot.BoxPlot {
	p := &textplot.BoxPlot{
		Title:  "Fig 20: sign-bit flip absolute error by regime size (posit32)",
		XLabel: "absolute error",
		LogX:   true,
	}
	// Pool sign-bit trials across a large- and a small-magnitude field
	// ("posits of all magnitude ranges are included").
	var all []core.Trial
	for _, key := range []string{"Nyx/temperature", "CESM/CLOUD"} {
		r := runField(b, "posit32", key)
		all = append(all, r.Trials...)
	}
	for _, kb := range core.SignBoxes(all, 32) {
		if kb.Box.N < 5 {
			continue
		}
		p.AddGroup(fmt.Sprintf("k=%d", kb.K), kb.Box)
	}
	return p
}

// Fig11AbsErr renders the absolute-error variant referenced in
// §5.4.1 ("we compute the average absolute error from flips in posits
// with different regime sizes").
func Fig11AbsErr(b Budget) *textplot.LineChart {
	r := runField(b, "posit32", "Nyx/temperature")
	above := core.MagnitudeAbove(r.Trials)
	curves := core.RegimeCurve(above)
	ks := make([]int, 0, len(curves))
	for k := range curves {
		if k >= 2 && k <= 6 {
			ks = append(ks, k)
		}
	}
	sort.Ints(ks)
	c := &textplot.LineChart{
		Title:  "Fig 11 (abs): avg absolute error, posits with |v| > 1, by regime size",
		XLabel: "bit position (0 = LSB)",
		YLabel: "mean absolute error",
		LogY:   true,
		Height: 24,
	}
	for _, k := range ks {
		c.Series = append(c.Series, meanAbsSeries(fmt.Sprintf("k=%d", k), curves[k]))
	}
	return c
}
