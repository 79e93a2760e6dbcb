package posit

import (
	"math"
	"math/bits"
)

// EncodeFloat64 converts an IEEE-754 float64 to the nearest posit of
// the given configuration, following the rounding rules of the 2022
// posit standard:
//
//   - round to nearest, ties to even, in the posit integer
//     representation (guard/sticky on the trailing significand bits);
//   - a nonzero value never rounds to zero: positive values below
//     minpos saturate to minpos (and symmetrically for negatives);
//   - finite values never round to NaR: magnitudes above maxpos
//     saturate to maxpos;
//   - ±0 encodes to 0; NaN and ±Inf encode to NaR.
//
// The returned pattern is right-aligned in the low N bits.
func EncodeFloat64(cfg Config, x float64) uint64 {
	if x == 0 {
		return 0
	}
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return cfg.NaR()
	}
	neg := math.Signbit(x)
	fb := math.Float64bits(math.Abs(x))
	rawExp := int(fb >> 52)
	man := fb & (1<<52 - 1)

	var h int // unbiased base-2 scale: |x| = 2^h * (1 + man/2^52)
	if rawExp == 0 {
		// Subnormal float64: normalize the mantissa so its leading 1
		// becomes the implicit bit.
		shift := bits.LeadingZeros64(man) - 11 // man has <= 51 significant bits
		man = (man << uint(shift+1)) & (1<<52 - 1)
		h = -1022 - (shift + 1)
	} else {
		h = rawExp - 1023
	}

	p := assemble(cfg, h, man<<12, false) // significand tail left-aligned in 64 bits
	if neg {
		p = cfg.Negate(p)
	}
	return p
}

// assemble builds the posit bit pattern for the positive value
// 2^h × (1 + tail/2^64), where tail holds the fraction bits of the
// significand left-aligned in a uint64 and stickyIn is true when
// further nonzero bits were discarded below the tail. It performs the
// standard saturation and round-to-nearest-even. The result always has
// a clear sign bit.
//
// The payload stream — regime, ES exponent bits, tail — is built in a
// 128-bit word hi:lo without a loop: the exponent and tail (at most
// 68 bits) start left-aligned and shift right past the regime, whose
// run then fills the top. The regime takes 2 to N-1 bits, so the
// stream can run up to 3 bits past 128; every bit shifted out counts
// toward sticky.
func assemble(cfg Config, h int, tail uint64, stickyIn bool) uint64 {
	maxScale := cfg.MaxScale()
	if h >= maxScale {
		return cfg.MaxPosBits()
	}
	if h < -maxScale {
		return cfg.MinPosBits()
	}

	es := uint(cfg.ES)
	r := h >> es                // regime value (floor division)
	e := uint64(h - r<<es)      // exponent in [0, 2^ES)
	hi := e<<(64-es) | tail>>es // es == 0: e is 0 and the shift by 64 reads 0
	lo := tail << (64 - es)     // es == 0: 0
	var run uint                // regime length in bits
	var regime uint64           // the regime's bits at the top of the word
	if r >= 0 {
		run = uint(r) + 2
		regime = ^uint64(0) << (64 - run + 1) // r+1 ones, then the terminating zero
	} else {
		run = uint(1 - r)
		regime = 1 << (64 - run) // -r zeros, then the terminating one
	}
	sticky := stickyIn || lo<<(64-run) != 0
	hi, lo = hi>>run|regime, lo>>run|hi<<(64-run)

	// The posit payload is the top n-1 stream bits; the next bit is the
	// guard, everything below contributes to sticky.
	pn := uint(cfg.N - 1)
	payload := hi >> (64 - pn)
	guard := hi >> (63 - pn) & 1
	sticky = sticky || lo != 0 || hi<<(pn+1) != 0

	if guard == 1 && (sticky || payload&1 == 1) {
		payload++
	}
	// payload cannot overflow into the sign bit: an all-ones payload
	// implies h >= maxScale, which saturated above.
	return payload
}

// maskN returns a mask of the low n bits (n in [0, 64]).
func maskN(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(n)) - 1
}
