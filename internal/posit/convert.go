package posit

import (
	"math"
	"math/bits"
)

// This file implements the remaining conversion operations of the 2022
// posit standard: posit↔posit width conversion, posit↔integer
// conversion, and neighbor enumeration (NextUp/NextDown).

// Convert re-rounds a posit pattern from one configuration to another.
// Widening between standard formats (same ES) is exact; narrowing
// rounds to nearest (ties to even in the integer representation) and
// saturates like EncodeFloat64. Zero and NaR map to zero and NaR.
func Convert(from, to Config, bitsIn uint64) uint64 {
	return pack(to, unpack(from, bitsIn), 0, false)
}

// FromInt64 returns the posit nearest to the integer v.
func FromInt64(cfg Config, v int64) uint64 {
	if v == 0 {
		return 0
	}
	neg := v < 0
	var mag uint64
	if neg {
		mag = uint64(-v) // two's complement: correct even for MinInt64
	} else {
		mag = uint64(v)
	}
	lz := bits.LeadingZeros64(mag)
	h := 63 - lz
	// Significand tail: bits below the leading 1, left-aligned.
	tail := mag << uint(lz+1)
	p := assemble(cfg, h, tail, false)
	if neg {
		p = cfg.Negate(p)
	}
	return p
}

// FromUint64 returns the posit nearest to the unsigned integer v.
func FromUint64(cfg Config, v uint64) uint64 {
	if v == 0 {
		return 0
	}
	lz := bits.LeadingZeros64(v)
	h := 63 - lz
	tail := v << uint(lz+1)
	return assemble(cfg, h, tail, false)
}

// ToInt64 converts a posit to int64, rounding to nearest with ties to
// even (the standard's convention). NaR and out-of-range magnitudes
// saturate to MinInt64/MaxInt64; the standard maps NaR to MinInt64.
func ToInt64(cfg Config, bitsIn uint64) int64 {
	u := unpack(cfg, bitsIn)
	switch {
	case u.zero:
		return 0
	case u.nar:
		return math.MinInt64
	}
	mag, ok := roundSigToInt(u.h, u.sig, 63)
	switch {
	case !ok && u.neg:
		return math.MinInt64
	case !ok:
		return math.MaxInt64
	case u.neg:
		return -int64(mag)
	}
	return int64(mag)
}

// ToUint64 converts a posit to uint64, rounding to nearest with ties
// to even. Every negative posit gives 0: those in [-0.5, 0) round to
// it and the rest saturate at it. Magnitudes beyond MaxUint64 saturate
// there, and NaR maps to 0x8000000000000000 as the standard
// prescribes.
func ToUint64(cfg Config, bitsIn uint64) uint64 {
	u := unpack(cfg, bitsIn)
	switch {
	case u.nar:
		return 1 << 63
	case u.zero || u.neg:
		return 0
	}
	mag, ok := roundSigToInt(u.h, u.sig, 64)
	if !ok {
		return math.MaxUint64
	}
	return mag
}

// roundSigToInt rounds sig × 2^(h-62), an unpacked magnitude (sig in
// [2^62, 2^63)), to an integer with round-half-even, reporting
// overflow beyond maxBits bits (maxBits <= 64).
func roundSigToInt(h int, sig uint64, maxBits int) (uint64, bool) {
	if h < -1 {
		return 0, true // < 0.5 rounds to 0
	}
	if h >= maxBits {
		return 0, false
	}
	shift := 62 - h // bits below the binary point, at most 63
	if shift <= 0 {
		// Integer already: h is 62 or 63, and sig << 1 fits 64 bits.
		v := sig << uint(-shift)
		return v, bits.Len64(v) <= maxBits
	}
	kept := sig >> uint(shift)
	guard := (sig >> uint(shift-1)) & 1
	sticky := sig&maskN(shift-1) != 0
	if guard == 1 && (sticky || kept&1 == 1) {
		kept++
	}
	return kept, bits.Len64(kept) <= maxBits
}

// NextUp returns the smallest posit strictly greater than the given
// pattern's value. Because posits order as signed integers, this is
// simply pattern+1 — except NaR (no successor defined: returns the
// most negative real) and maxpos (saturates at maxpos).
func NextUp(cfg Config, bitsIn uint64) uint64 {
	b := cfg.Canon(bitsIn)
	if b == cfg.MaxPosBits() {
		return b // already the largest real
	}
	return cfg.Canon(b + 1)
}

// NextDown returns the largest posit strictly smaller than the value.
// The most negative real (NaR+1) has no predecessor and saturates.
func NextDown(cfg Config, bitsIn uint64) uint64 {
	b := cfg.Canon(bitsIn)
	if b == cfg.Canon(cfg.NaR()+1) {
		return b
	}
	return cfg.Canon(b - 1)
}

// FMA computes the correctly rounded fused a×b + c: the product is
// exact (never rounded) before the addition, as the standard requires.
func FMA(cfg Config, a, b, c uint64) uint64 {
	ua, ub, uc := unpack(cfg, a), unpack(cfg, b), unpack(cfg, c)
	if ua.nar || ub.nar || uc.nar {
		return cfg.NaR()
	}
	if ua.zero || ub.zero {
		return cfg.Canon(c)
	}
	// Exact product: 128-bit significand.
	hi, lo := bits.Mul64(ua.sig, ub.sig)
	neg := ua.neg != ub.neg
	h := ua.h + ub.h
	// Normalize product so top bit is at position 126 (hi bit 62).
	t := 2
	if hi>>61 != 0 {
		t = 1
		h++
	}
	hi = hi<<uint(t) | lo>>uint(64-t)
	lo <<= uint(t)
	if uc.zero {
		return pack(cfg, unpacked{neg: neg, h: h, sig: hi}, lo, false)
	}
	// Add c (sig at bit 62 with 64-bit ext = 0) to the product
	// (hi at bit 62, ext = lo).
	p := wide{neg: neg, h: h, hi: hi, lo: lo}
	q := wide{neg: uc.neg, h: uc.h, hi: uc.sig, lo: 0}
	r := addWide(p, q)
	if r.zeroFlag {
		return 0
	}
	return pack(cfg, unpacked{neg: r.neg, h: r.h, sig: r.hi}, r.lo, r.sticky)
}

// wide is a 128-bit-significand intermediate: value = ±(hi:lo) ×
// 2^(h-126) with hi's bit 62 set (so hi:lo's bit 126 is the implicit
// one).
type wide struct {
	neg      bool
	h        int
	hi, lo   uint64
	sticky   bool
	zeroFlag bool
}

// addWide adds two wide values exactly over a 192-bit window (three
// limbs), wide enough that a posit (≤ 63 significant bits) aligned
// against a 128-bit product never loses bits that could influence the
// correctly rounded result.
func addWide(a, b wide) wide {
	// Order by magnitude (both operands are normalized with the
	// implicit 1 at window bit 190, so the scale decides first).
	if a.h < b.h || (a.h == b.h && (a.hi < b.hi || (a.hi == b.hi && a.lo < b.lo))) {
		a, b = b, a
	}
	shift := a.h - b.h
	// Windows: limb [2] is the most significant.
	aw := [3]uint64{0, a.lo, a.hi}
	bw := [3]uint64{0, b.lo, b.hi}
	sticky := shiftRight3(&bw, shift)

	out := wide{neg: a.neg, h: a.h}
	if a.neg == b.neg {
		var carry uint64
		var s [3]uint64
		s[0], carry = bits.Add64(aw[0], bw[0], 0)
		s[1], carry = bits.Add64(aw[1], bw[1], carry)
		s[2], _ = bits.Add64(aw[2], bw[2], carry)
		if s[2]>>63 != 0 { // carried past the implicit-1 position
			sticky = sticky || s[0]&1 != 0
			shiftRight3(&s, 1)
			out.h++
		}
		return finishWide(out, s, sticky)
	}
	// Subtraction (|a| >= |b| by the ordering above). A sticky residue
	// below the window makes the true result fractionally smaller.
	var borrow uint64
	var d [3]uint64
	d[0], borrow = bits.Sub64(aw[0], bw[0], 0)
	d[1], borrow = bits.Sub64(aw[1], bw[1], borrow)
	d[2], _ = bits.Sub64(aw[2], bw[2], borrow)
	if sticky {
		d[0], borrow = bits.Sub64(d[0], 1, 0)
		d[1], borrow = bits.Sub64(d[1], 0, borrow)
		d[2], _ = bits.Sub64(d[2], 0, borrow)
	}
	if d[0] == 0 && d[1] == 0 && d[2] == 0 {
		if sticky {
			// Unreachable for FMA operand widths (needs > 192
			// significant bits); represent as a tiny positive value.
			out.h -= 256
			return finishWide(out, [3]uint64{0, 0, 1 << 62}, true)
		}
		return wide{zeroFlag: true}
	}
	// Normalize the leading 1 back to window bit 190.
	lz := leadingZeros3(d)
	adj := lz - 1 // window has 192 bits; implicit position is bit 190
	shiftLeft3(&d, adj)
	out.h -= adj
	return finishWide(out, d, sticky)
}

// finishWide folds a 192-bit window into the (hi, lo, sticky) triple
// pack consumes.
func finishWide(out wide, w [3]uint64, sticky bool) wide {
	out.hi = w[2]
	out.lo = w[1]
	out.sticky = sticky || w[0] != 0
	return out
}

// shiftRight3 shifts the window right, returning true if any dropped
// bit was set.
func shiftRight3(w *[3]uint64, n int) bool {
	if n <= 0 {
		return false
	}
	sticky := false
	for n >= 64 {
		sticky = sticky || w[0] != 0
		w[0], w[1], w[2] = w[1], w[2], 0
		n -= 64
	}
	if n > 0 {
		sticky = sticky || w[0]<<uint(64-n) != 0
		w[0] = w[0]>>uint(n) | w[1]<<uint(64-n)
		w[1] = w[1]>>uint(n) | w[2]<<uint(64-n)
		w[2] >>= uint(n)
	}
	return sticky
}

// shiftLeft3 shifts the window left by n (no overflow may occur).
func shiftLeft3(w *[3]uint64, n int) {
	if n <= 0 {
		return
	}
	for n >= 64 {
		w[2], w[1], w[0] = w[1], w[0], 0
		n -= 64
	}
	if n > 0 {
		w[2] = w[2]<<uint(n) | w[1]>>uint(64-n)
		w[1] = w[1]<<uint(n) | w[0]>>uint(64-n)
		w[0] <<= uint(n)
	}
}

// leadingZeros3 counts leading zeros over the 192-bit window.
func leadingZeros3(w [3]uint64) int {
	if w[2] != 0 {
		return bits.LeadingZeros64(w[2])
	}
	if w[1] != 0 {
		return 64 + bits.LeadingZeros64(w[1])
	}
	return 128 + bits.LeadingZeros64(w[0])
}
