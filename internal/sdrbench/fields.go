package sdrbench

import (
	"fmt"
	"sort"
	"strings"
)

// Table1Row records the summary statistics the paper reports for a
// field (its Table 1), used as generator targets and by EXPERIMENTS.md
// to compare paper-vs-measured.
type Table1Row struct {
	Mean, Median, Max, Min, Std float64 // the paper's Table 1 columns
}

// Field describes one dataset field: identity, the paper's Table 1
// statistics, and the value generator that synthesizes a stand-in
// sample.
type Field struct {
	Dataset string    // SDRBench dataset name, e.g. "CESM"
	Name    string    // field name within the dataset, e.g. "CLOUD"
	Target  Table1Row // the paper's summary statistics for the field
	gen     func(r *RNG) float64
}

// Key returns the canonical "Dataset/Name" identifier.
func (f Field) Key() string { return f.Dataset + "/" + f.Name }

// Generate synthesizes n float32 elements deterministically from the
// seed. The same (field, seed, n) always yields the same data, at any
// time, on any platform.
func (f Field) Generate(n int, seed uint64) []float32 {
	r := NewRNG(seed, f.Dataset, f.Name)
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(f.gen(r))
	}
	return out
}

// clip bounds x to [lo, hi].
func clip(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// fields is the registry of the paper's 16 evaluation fields. Each
// generator is a small mixture model tuned to the Table 1 targets;
// comments state the structural features that matter for fault
// injection (magnitude scale → regime size, sign mix, zero mass).
var fields = []Field{
	{
		Dataset: "CESM", Name: "OMEGA",
		Target: Table1Row{Mean: -3.88e-06, Median: 3.41e-06, Max: 4.18e-03, Min: -5.01e-03, Std: 3.11e-04},
		// Vertical velocity: symmetric heavy-tailed values at the
		// 1e-4 scale (tiny magnitudes → long posit regimes, |v| < 1).
		gen: func(r *RNG) float64 {
			if r.Float64() < 0.85 {
				return clip(3.4e-6+5e-5*r.NormFloat64(), -5.01e-3, 4.18e-3)
			}
			return clip(-3e-5+7.5e-4*r.NormFloat64(), -5.01e-3, 4.18e-3)
		},
	},
	{
		Dataset: "CESM", Name: "CLOUD",
		Target: Table1Row{Mean: 6.37e-02, Median: 2.89e-02, Max: 9.64e-01, Min: -1.14e-17, Std: 7.42e-02},
		// Cloud fraction: non-negative, right-skewed, bounded by ~1
		// (all |v| < 1 → the paper's small-magnitude regime).
		gen: func(r *RNG) float64 {
			return clip(r.LogNormal(-3.544, 1.257), 0, 0.964)
		},
	},
	{
		Dataset: "CESM", Name: "RELHUM",
		Target: Table1Row{Mean: 4.07e+01, Median: 4.56e+01, Max: 9.96e+01, Min: 1.12e-03, Std: 2.02e+01},
		// Relative humidity in (0, 100): moderate magnitudes, left
		// skew (median > mean), no negatives.
		gen: func(r *RNG) float64 {
			if r.Float64() < 0.84 {
				return clip(48+15*r.NormFloat64(), 1.12e-3, 99.6)
			}
			return clip(1.12e-3+6*r.ExpFloat64(), 1.12e-3, 99.6)
		},
	},
	{
		Dataset: "EXAFEL", Name: "smd-cxif5315-r129-dark",
		Target: Table1Row{Mean: 2.18e-35, Median: 2.02e-35, Max: 9.53e-01, Min: 6.81e-43, Std: 1.94e-03},
		// Dark-calibration frames: almost all mass at the float32
		// denormal boundary (~1e-35, extreme posit regimes) with very
		// rare O(1) spikes that dominate the variance.
		gen: func(r *RNG) float64 {
			u := r.Float64()
			switch {
			case u < 1.5e-5:
				return clip(0.25+0.25*r.ExpFloat64(), 1e-3, 0.953)
			case u < 0.01:
				// Deep lower tail reaching the float32 denormal floor.
				return clip(r.LogNormal(-88, 5.5), 6.81e-43, 1e-30)
			}
			return clip(r.LogNormal(-79.88, 0.55), 6.81e-43, 1e-30)
		},
	},
	{
		Dataset: "HACC", Name: "vx",
		Target: Table1Row{Mean: 1.79e+01, Median: 2.34e+01, Max: 3.39e+03, Min: -3.52e+03, Std: 2.27e+02},
		gen:    haccVelocity(17.9, 23.4, 227, 3390, -3520),
	},
	{
		Dataset: "HACC", Name: "vy",
		Target: Table1Row{Mean: 4.08e+00, Median: -4.98e-01, Max: 3.74e+03, Min: -3.50e+03, Std: 2.41e+02},
		gen:    haccVelocity(4.08, -0.498, 241, 3740, -3500),
	},
	{
		Dataset: "HACC", Name: "vz",
		Target: Table1Row{Mean: 2.45e+00, Median: -1.17e+00, Max: 3.18e+03, Min: -4.08e+03, Std: 2.63e+02},
		gen:    haccVelocity(2.45, -1.17, 263, 3180, -4080),
	},
	{
		Dataset: "Hurricane", Name: "PRECIPf48",
		Target: Table1Row{Mean: 1.24e-05, Median: 7.09e-09, Max: 7.51e-03, Min: 0, Std: 7.77e-05},
		// Precipitation: exact zeros plus a lognormal spanning eight
		// decades (tiny medians, rare large values — wide regime mix).
		gen: func(r *RNG) float64 {
			if r.Float64() < 0.10 {
				return 0
			}
			return clip(r.LogNormal(-18.54, 3.6), 0, 7.51e-3)
		},
	},
	{
		Dataset: "Hurricane", Name: "Wf30",
		Target: Table1Row{Mean: 6.91e-03, Median: -7.78e-05, Max: 1.55e+01, Min: -4.57e+00, Std: 1.72e-01},
		// Vertical wind: near-zero core (centered slightly below zero
		// so the mixture median lands at the target's -7.8e-5) with a
		// strong updraft tail and a weaker downdraft tail.
		gen: func(r *RNG) float64 {
			u := r.Float64()
			switch {
			case u < 0.982:
				return clip(-1.6e-3+0.09*r.NormFloat64(), -4.57, 15.5)
			case u < 0.997:
				return clip(0.3+0.9*r.ExpFloat64(), -4.57, 15.5)
			}
			return clip(-0.3-0.7*r.ExpFloat64(), -4.57, 15.5)
		},
	},
	{
		Dataset: "Hurricane", Name: "Uf30",
		Target: Table1Row{Mean: -5.54e-01, Median: -6.93e-01, Max: 6.89e+01, Min: -7.95e+01, Std: 9.36e+00},
		gen: func(r *RNG) float64 {
			return clip(-0.62+9.3*r.NormFloat64(), -79.5, 68.9)
		},
	},
	{
		Dataset: "Hurricane", Name: "Pf48",
		Target: Table1Row{Mean: 3.76e+02, Median: 2.25e+02, Max: 3.22e+03, Min: -3.41e+03, Std: 4.55e+02},
		// Perturbation pressure: positive skew with a negative tail.
		gen: func(r *RNG) float64 {
			if r.Float64() < 0.75 {
				return clip(225+180*r.NormFloat64(), -3410, 3220)
			}
			return clip(225+500*r.NormFloat64()+400*r.ExpFloat64(), -3410, 3220)
		},
	},
	{
		Dataset: "Hurricane", Name: "CLOUDf48",
		Target: Table1Row{Mean: 8.60e-06, Median: 0, Max: 2.05e-03, Min: 0, Std: 5.18e-05},
		// Cloud water: mostly exact zeros (median 0) with a tiny
		// lognormal remainder — the extreme zero-mass case.
		gen: func(r *RNG) float64 {
			if r.Float64() < 0.62 {
				return 0
			}
			return clip(r.LogNormal(-13.0, 2.4), 0, 2.05e-3)
		},
	},
	{
		Dataset: "Hurricane", Name: "Vf30",
		Target: Table1Row{Mean: 3.63e+00, Median: 3.48e+00, Max: 6.98e+01, Min: -6.86e+01, Std: 9.76e+00},
		gen: func(r *RNG) float64 {
			return clip(3.55+9.7*r.NormFloat64(), -68.6, 69.8)
		},
	},
	{
		Dataset: "Nyx", Name: "velocity-x",
		Target: Table1Row{Mean: 3.54e+02, Median: 4.68e+05, Max: 3.19e+07, Min: -5.04e+07, Std: 4.97e+06},
		// Baryon velocity: huge symmetric magnitudes (1e6–1e7 scale →
		// large posit regimes; the paper's "spiky" dataset).
		gen: func(r *RNG) float64 {
			if r.Float64() < 0.60 {
				return clip(4.7e5+2.8e6*r.NormFloat64(), -5.04e7, 3.19e7)
			}
			return clip(-7e5+7.2e6*r.NormFloat64(), -5.04e7, 3.19e7)
		},
	},
	{
		Dataset: "Nyx", Name: "dark-matter-density",
		Target: Table1Row{Mean: 1.00e+00, Median: 3.93e-01, Max: 1.38e+04, Min: 0, Std: 8.37e+00},
		// Density contrast: lognormal around 1 with a cosmic-web
		// power-law tail and an underdense floor near zero.
		gen: func(r *RNG) float64 {
			if r.Float64() < 5e-4 {
				return clip(10*paretoTail(r), 0, 1.38e4)
			}
			return clip(r.LogNormal(-0.934, 1.25), 0, 1.38e4)
		},
	},
	{
		Dataset: "Nyx", Name: "temperature",
		Target: Table1Row{Mean: 8.45e+03, Median: 7.09e+03, Max: 4.78e+06, Min: 2.28e+03, Std: 1.54e+04},
		// Gas temperature: floored at ~2280 K, lognormal body, rare
		// shock-heated tail to millions of K.
		gen: func(r *RNG) float64 {
			if r.Float64() < 5e-4 {
				// Shock-heated tail to millions of K.
				return clip(2280+3e4*paretoTail(r), 2280, 4.78e6)
			}
			return clip(2280+r.LogNormal(8.48, 0.9), 2280, 4.78e6)
		},
	},
}

// paretoTail draws a Pareto-like heavy tail sample in [1, ~1e3).
func paretoTail(r *RNG) float64 {
	u := r.Float64()
	if u < 1e-9 {
		u = 1e-9
	}
	x := 1 / (u * u) // Pareto(alpha=0.5)-ish
	if x > 138 {
		x = 138
	}
	return x
}

// haccVelocity builds a particle-velocity generator: a Gaussian core
// with the dataset's mean/median offset plus a mild exponential tail.
func haccVelocity(mean, median, std, max, min float64) func(*RNG) float64 {
	return func(r *RNG) float64 {
		u := r.Float64()
		if u < 0.895 {
			// The core sits a hair below the target median to cancel
			// the upward pull of the shifted tail component.
			return clip(median-0.013*std+std*0.8*r.NormFloat64(), min, max)
		}
		if u < 0.995 {
			// Bulk tail shifted so the overall mean lands near the
			// target despite the median offset.
			shift := (mean - median) * 10
			return clip(shift+std*1.7*r.NormFloat64(), min, max)
		}
		// Rare high-velocity particles reaching the dataset extremes.
		return clip(std*3.5*r.NormFloat64(), min, max)
	}
}

// Fields returns all registered fields in Table 1 order.
func Fields() []Field {
	out := make([]Field, len(fields))
	copy(out, fields)
	return out
}

// Lookup finds a field by "Dataset/Name" key (case-insensitive).
func Lookup(key string) (Field, error) {
	for _, f := range fields {
		if strings.EqualFold(f.Key(), key) {
			return f, nil
		}
	}
	known := make([]string, len(fields))
	for i, f := range fields {
		known[i] = f.Key()
	}
	sort.Strings(known)
	return Field{}, fmt.Errorf("sdrbench: unknown field %q (known: %s)", key, strings.Join(known, ", "))
}

// Datasets returns the distinct dataset names in Table 1 order.
func Datasets() []string {
	seen := map[string]bool{}
	var out []string
	for _, f := range fields {
		if !seen[f.Dataset] {
			seen[f.Dataset] = true
			out = append(out, f.Dataset)
		}
	}
	return out
}
