package posit

import (
	"math"
	"math/rand"
	"testing"
)

// checkDecode fails unless every reader of the one decomposition agrees
// with the bit-walking references on the raw pattern bits (bits above
// N included): DecodeFloat64 with refDecode (float64 bits compared, so
// NaN and signed zero are exact), DecodeFields with refDecodeFields,
// and unpack's scale and significand with those refDecodeFields
// implies.
func checkDecode(t *testing.T, cfg Config, bits uint64) {
	t.Helper()
	if got, want := DecodeFloat64(cfg, bits), refDecode(cfg, bits); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%v pattern %#x: DecodeFloat64 %v (%#x), reference %v (%#x)",
			cfg, bits, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if got, want := DecodeFields(cfg, bits), refDecodeFields(cfg, bits); got != want {
		t.Fatalf("%v pattern %#x: DecodeFields %+v, reference %+v", cfg, bits, got, want)
	}
	b := cfg.Canon(bits)
	want := unpacked{zero: b == 0, nar: b == cfg.NaR()}
	if !want.zero && !want.nar {
		want.neg = cfg.IsNeg(b)
		if want.neg {
			b = cfg.Negate(b)
		}
		f := refDecodeFields(cfg, b)
		want.h = f.R<<uint(cfg.ES) + int(f.Exp)
		want.sig = (uint64(1)<<uint(f.FracLen) + f.Frac) << uint(62-f.FracLen)
	}
	if got := unpack(cfg, bits); got != want {
		t.Fatalf("%v pattern %#x: unpack %+v, reference %+v", cfg, bits, got, want)
	}
}

// TestCLZExhaustiveSmallWidths checks the one leading-zero-count
// decomposition against the references on every pattern of every
// configuration with N <= 20 (14 under -short) and ES 0–4, and up to
// N = 16 once more with every bit above N set. Field layout depends
// only on the run length relative to the width, so this covers every
// truncated regime, exponent and fraction shape a wider posit can
// have.
func TestCLZExhaustiveSmallWidths(t *testing.T) {
	t.Parallel()
	maxN := 20
	if testing.Short() {
		maxN = 14
	}
	for n := 2; n <= maxN; n++ {
		for es := 0; es <= 4; es++ {
			cfg := Config{N: n, ES: es}
			for b := uint64(0); b < 1<<uint(n); b++ {
				checkDecode(t, cfg, b)
				if n <= 16 {
					checkDecode(t, cfg, b|^cfg.Mask())
				}
			}
		}
	}
}

// checkSampled checks, at width n, every pattern below span with its
// negation and its complement (the long runs of zeros and ones next to
// minpos and NaR), then 10⁶ samplePattern draws (10⁵ under -short) of
// each ES 0–4, half of them with long regime runs.
func checkSampled(t *testing.T, n int, span uint64) {
	draws := 1_000_000
	if testing.Short() {
		draws, span = 100_000, span>>4
	}
	cfg := Config{N: n, ES: 2}
	for b := uint64(0); b < span; b++ {
		checkDecode(t, cfg, b)
		checkDecode(t, cfg, cfg.Negate(b))
		checkDecode(t, cfg, cfg.Canon(^b))
	}
	for es := 0; es <= 4; es++ {
		cfg := Config{N: n, ES: es}
		rng := rand.New(rand.NewSource(int64(n*8 + es)))
		for i := 0; i < draws; i++ {
			checkDecode(t, cfg, samplePattern(rng, cfg, i%2 == 1))
		}
	}
}

// TestCLZPosit32Sampled covers N = 32 at every ES: the standard
// posit32 and the es-ablation codecs posit32es0/1/3.
func TestCLZPosit32Sampled(t *testing.T) {
	t.Parallel()
	checkSampled(t, 32, 1<<20)
}

// TestCLZPosit64Sampled covers N = 64 at every ES, where a fraction
// can exceed 52 bits and DecodeFloat64 incurs its one float64
// rounding; it must round as refDecode's math.Ldexp does.
func TestCLZPosit64Sampled(t *testing.T) {
	t.Parallel()
	checkSampled(t, 64, 1<<18)
}

// TestCLZSpecialPatterns pins zero, NaR, the extreme patterns and a
// regime run of every length in both directions (with all-zero,
// single-bit, all-ones and alternating tails), each with its negation,
// for a spread of configurations.
func TestCLZSpecialPatterns(t *testing.T) {
	for _, cfg := range []Config{Std8, Std16, Std32, Std64, {N: 64, ES: 4}, {N: 64, ES: 0}, {N: 2, ES: 0}} {
		if v := DecodeFloat64(cfg, 0); v != 0 || math.Signbit(v) {
			t.Errorf("%v: zero pattern decoded to %v", cfg, v)
		}
		if v := DecodeFloat64(cfg, cfg.NaR()); !math.IsNaN(v) {
			t.Errorf("%v: NaR pattern decoded to %v", cfg, v)
		}
		patterns := []uint64{cfg.MaxPosBits(), cfg.MinPosBits(), cfg.NaR() + 1}
		for k := 0; k < cfg.N; k++ {
			run := (cfg.Mask() >> 1) &^ (cfg.Mask() >> uint(k+1)) // k ones after the sign
			for _, tail := range []uint64{0, 1, cfg.Mask() >> uint(k+2), 0x5555555555555555 & (cfg.Mask() >> uint(k+2))} {
				patterns = append(patterns, run|tail, tail)
			}
		}
		for _, b := range patterns {
			checkDecode(t, cfg, b)
			checkDecode(t, cfg, cfg.Negate(b))
		}
	}
}
