package analysis

import (
	"math"
	"math/rand"
	"testing"

	"positres/internal/posit"
)

// TestPredictFlipValueExhaustive16: the closed forms agree with
// injection (flip + decode) on EVERY posit16 pattern and position.
func TestPredictFlipValueExhaustive16(t *testing.T) {
	cfg := posit.Std16
	for b := uint64(0); b <= cfg.Mask(); b++ {
		for pos := 0; pos < cfg.N; pos++ {
			pred := PredictFlipValue(cfg, b, pos)
			want := posit.DecodeFloat64(cfg, cfg.Canon(b^uint64(1)<<uint(pos)))
			if pred != want && !(math.IsNaN(pred) && math.IsNaN(want)) {
				t.Fatalf("pattern %#x pos %d: predicted %v, injection %v (fields %+v)",
					b, pos, pred, want, posit.DecodeFields(cfg, b))
			}
		}
	}
}

// TestPredictFlipValueExhaustive8 covers posit8 (different truncation
// edge cases) and a legacy es.
func TestPredictFlipValueExhaustive8(t *testing.T) {
	for _, cfg := range []posit.Config{posit.Std8, {N: 8, ES: 0}, {N: 12, ES: 3}} {
		for b := uint64(0); b <= cfg.Mask(); b++ {
			for pos := 0; pos < cfg.N; pos++ {
				pred := PredictFlipValue(cfg, b, pos)
				want := posit.DecodeFloat64(cfg, cfg.Canon(b^uint64(1)<<uint(pos)))
				if pred != want && !(math.IsNaN(pred) && math.IsNaN(want)) {
					t.Fatalf("%v pattern %#x pos %d: predicted %v, injection %v",
						cfg, b, pos, pred, want)
				}
			}
		}
	}
}

// TestPredictFlipValueSampled32And64 samples the wide formats.
func TestPredictFlipValueSampled32And64(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, cfg := range []posit.Config{posit.Std32, posit.Std64} {
		for i := 0; i < 100000; i++ {
			b := cfg.Canon(rng.Uint64())
			pos := rng.Intn(cfg.N)
			pred := PredictFlipValue(cfg, b, pos)
			want := posit.DecodeFloat64(cfg, cfg.Canon(b^uint64(1)<<uint(pos)))
			if pred != want && !(math.IsNaN(pred) && math.IsNaN(want)) {
				t.Fatalf("%v pattern %#x pos %d: predicted %v, injection %v", cfg, b, pos, pred, want)
			}
		}
	}
}

// TestPredictFlipRelError: the relative-error closed form matches the
// brute-force campaign arithmetic.
func TestPredictFlipRelError(t *testing.T) {
	cfg := posit.Std32
	rng := rand.New(rand.NewSource(63))
	for i := 0; i < 20000; i++ {
		b := cfg.Canon(rng.Uint64())
		pos := rng.Intn(cfg.N)
		pred := PredictFlipRelError(cfg, b, pos)
		pf := Analyze(p32, b, pos)
		want := pf.RelErr
		if pf.Catastrophic {
			want = math.Inf(1)
		}
		if pred != want && !(math.IsInf(pred, 1) && math.IsInf(want, 1)) {
			t.Fatalf("pattern %#x pos %d: predicted rel %v, measured %v", b, pos, pred, want)
		}
	}
}

// TestSignFlipMagnitudeRatio: the §5.7 formula matches measurement on
// every posit16 real pattern.
func TestSignFlipMagnitudeRatio(t *testing.T) {
	cfg := posit.Std16
	for b := uint64(0); b <= cfg.Mask(); b++ {
		if b == 0 || b == cfg.NaR() {
			if !math.IsNaN(SignFlipMagnitudeRatio(cfg, b)) {
				t.Fatalf("ratio of special pattern %#x should be NaN", b)
			}
			continue
		}
		flipped := cfg.Canon(b ^ cfg.SignMask())
		if flipped == 0 || flipped == cfg.NaR() {
			continue
		}
		want := math.Abs(posit.DecodeFloat64(cfg, flipped)) / math.Abs(posit.DecodeFloat64(cfg, b))
		got := SignFlipMagnitudeRatio(cfg, b)
		if math.Abs(got-want)/want > 1e-12 {
			t.Fatalf("pattern %#x: ratio %v, want %v", b, got, want)
		}
	}
}

// TestSignFlipRatioGrowsWithRegime: the formula's 2^(-(2H+1)) term
// makes the ratio (and hence the absolute error) explode with regime
// size, the mechanism behind Fig. 20.
func TestSignFlipRatioGrowsWithRegime(t *testing.T) {
	cfg := posit.Std32
	var prevErr float64
	for k := 1; k <= 6; k++ {
		v := math.Ldexp(1.5, 4*(k-1))
		b := posit.EncodeFloat64(cfg, v)
		ratio := SignFlipMagnitudeRatio(cfg, b)
		absErr := math.Abs(v) * (1 + ratio) // |p - p'| with p' opposite sign
		if k > 1 && absErr <= prevErr {
			t.Errorf("k=%d: abs err %g not growing (prev %g)", k, absErr, prevErr)
		}
		prevErr = absErr
	}
}
