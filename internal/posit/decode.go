package posit

import "math"

// DecodeFloat64 converts a posit bit pattern to float64.
//
// The standard 8- and 16-bit posits are a single lookup in a table
// filled at init (see lut.go); every other configuration decodes
// through scale, the one decomposition of a positive pattern that the
// tables, the arithmetic and the conversions share
// (docs/ARCHITECTURE.md has the table). The result is exact for
// N <= 32; for posit64 a fraction longer than 52 bits incurs a single
// float64 rounding, to nearest even.
//
// Zero decodes to +0 and NaR to NaN.
func DecodeFloat64(cfg Config, bitsIn uint64) float64 {
	switch cfg {
	case Std8:
		return decodeLUT8[bitsIn&0xFF]
	case Std16:
		return decodeLUT16[bitsIn&0xFFFF]
	}
	return decode(cfg, bitsIn)
}

// decode is DecodeFloat64 without the tables, which it fills. It
// scales float64(sig) by adding h-62 straight into the float64
// exponent field: float64(sig) lies in [2^62, 2^63] and
// |h| <= MaxScale <= 992, so the result is a normal float64 and the
// addition is exactly Ldexp. It calls scale itself rather than going
// through unpack, whose returned struct more than doubled the cost of
// a posit32 or posit64 decode (~37 against ~16 ns on a 2-CPU x86-64
// host).
func decode(cfg Config, bitsIn uint64) float64 {
	b := cfg.Canon(bitsIn)
	if b == 0 {
		return 0
	}
	if b == cfg.NaR() {
		return math.NaN()
	}
	neg := cfg.IsNeg(b)
	if neg {
		b = cfg.Negate(b)
	}
	h, sig := scale(cfg, b)
	v := math.Float64frombits(math.Float64bits(float64(sig)) + uint64(int64(h-62))<<52)
	if neg {
		v = -v
	}
	return v
}

// scale turns a positive posit pattern b (0 < b < NaR) into its scale h
// and significand sig: the value is sig × 2^(h-62), with the hidden
// bit at bit 62 of sig and the fraction left-aligned below it (a posit
// fraction has at most 61 bits, so it fits exactly). It is
// straight-line: regimeRun locates every field, and the truncated
// cases (no terminating bit, a partial exponent, no fraction) read as
// zeros out of the shifts.
func scale(cfg Config, b uint64) (h int, sig uint64) {
	x, k := regimeRun(cfg, b)
	r := -k
	if int64(x) < 0 {
		r = k - 1
	}
	z := x << uint(k+1) // the exponent and fraction bits, left-aligned
	es := uint(cfg.ES)
	return r<<es + int(z>>(64-es)), 1<<62 | z<<es>>2
}

// DecodeEq2 evaluates eq. (2) of the paper (the raw-bit decode formula
// of the 2022 posit standard, generalized from es=2 to any es):
//
//	p = ((1 − 3s) + f) × 2^((1 − 2s) × ((r << es) + e + s))
//
// where s, r, e and f are read directly from the two's-complement bit
// pattern with no negation step. It must agree exactly with
// DecodeFloat64 on every pattern, and the test suite asserts this.
// Both read the fields through regimeRun's count of the regime run,
// so the tests also check each against a bit-walking reference.
func DecodeEq2(cfg Config, bitsIn uint64) float64 {
	b := cfg.Canon(bitsIn)
	if b == 0 {
		return 0
	}
	if b == cfg.NaR() {
		return math.NaN()
	}
	f := DecodeFields(cfg, b)
	s := int(f.Sign)
	exp := (1 - 2*s) * ((f.R << uint(cfg.ES)) + int(f.Exp) + s)
	// (1-3s) + f as an exact dyadic rational: numerator over 2^FracLen.
	num := int64(1-3*s)<<uint(f.FracLen) + int64(f.Frac)
	return math.Ldexp(float64(num), exp-f.FracLen)
}

// Float64ToNearest is a convenience round trip: the float64 value of
// the posit nearest to x.
func Float64ToNearest(cfg Config, x float64) float64 {
	return DecodeFloat64(cfg, EncodeFloat64(cfg, x))
}
