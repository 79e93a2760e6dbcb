package posit

import "math/bits"

// unpacked is the exact internal form used by the arithmetic engine:
// value = ±sig × 2^(h-62), with sig normalized so bit 62 is set
// (sig ∈ [2^62, 2^63)). Every posit fraction (at most 61 bits) fits
// exactly, so unpack/pack lose nothing except the final rounding.
type unpacked struct {
	nar  bool
	zero bool
	neg  bool
	h    int
	sig  uint64
}

// unpack decomposes a posit bit pattern into unpacked form.
func unpack(cfg Config, bitsIn uint64) unpacked {
	b := cfg.Canon(bitsIn)
	if b == 0 {
		return unpacked{zero: true}
	}
	if b == cfg.NaR() {
		return unpacked{nar: true}
	}
	var u unpacked
	if cfg.IsNeg(b) {
		u.neg = true
		b = cfg.Negate(b)
	}
	u.h, u.sig = scale(cfg, b)
	return u
}

// pack rounds an unpacked value (plus an extension word of lower
// significand bits and a sticky flag) back to a posit bit pattern.
// ext holds the 64 significand bits immediately below sig's LSB,
// left-aligned; sticky is true when nonzero bits exist below ext.
func pack(cfg Config, u unpacked, ext uint64, sticky bool) uint64 {
	if u.nar {
		return cfg.NaR()
	}
	if u.zero {
		return 0
	}
	// assemble wants the fraction below the implicit 1 left-aligned in
	// 64 bits: sig bits 61..0 followed by the top 2 bits of ext.
	tail := (u.sig&maskN(62))<<2 | ext>>62
	s := sticky || ext&maskN(62) != 0
	p := assemble(cfg, u.h, tail, s)
	if u.neg {
		p = cfg.Negate(p)
	}
	return p
}

// Add returns the correctly rounded sum of two posit bit patterns.
// NaR is absorbing: NaR + x = NaR.
func Add(cfg Config, a, b uint64) uint64 {
	ua, ub := unpack(cfg, a), unpack(cfg, b)
	if ua.nar || ub.nar {
		return cfg.NaR()
	}
	if ua.zero {
		return cfg.Canon(b)
	}
	if ub.zero {
		return cfg.Canon(a)
	}
	if ua.neg == ub.neg {
		r, ext, st := addMag(ua, ub)
		return pack(cfg, r, ext, st)
	}
	r, ext, st := subMag(ua, ub)
	return pack(cfg, r, ext, st)
}

// Sub returns the correctly rounded difference a - b.
func Sub(cfg Config, a, b uint64) uint64 {
	return Add(cfg, a, cfg.Negate(b))
}

// addMag adds two magnitudes with the same sign.
func addMag(a, b unpacked) (unpacked, uint64, bool) {
	if a.h < b.h || (a.h == b.h && a.sig < b.sig) {
		a, b = b, a
	}
	shift := a.h - b.h
	var bs, ext uint64
	sticky := false
	switch {
	case shift == 0:
		bs = b.sig
	case shift < 64:
		bs = b.sig >> uint(shift)
		ext = b.sig << uint(64-shift)
	case shift < 128:
		ext = b.sig >> uint(shift-64)
		sticky = b.sig<<uint(128-shift) != 0
	default:
		sticky = b.sig != 0
	}
	sum := a.sig + bs // both < 2^63, no uint64 overflow
	out := unpacked{neg: a.neg, h: a.h, sig: sum}
	if sum >= 1<<63 {
		// Carry: shift right one. The dropped significand bit becomes
		// the new ext MSB; ext's old LSB joins sticky.
		sticky = sticky || ext&1 != 0
		ext = sum<<63 | ext>>1
		out.sig = sum >> 1
		out.h++
	}
	return out, ext, sticky
}

// subMag subtracts the smaller magnitude from the larger; the result
// carries the sign of the larger. Exact cancellation yields zero.
func subMag(a, b unpacked) (unpacked, uint64, bool) {
	if a.h < b.h || (a.h == b.h && a.sig < b.sig) {
		a, b = b, a
	}
	if a.h == b.h && a.sig == b.sig {
		return unpacked{zero: true}, 0, false
	}
	shift := a.h - b.h
	// 128-bit aligned small magnitude (bhi:blo) plus sticky for bits
	// shifted beyond the extension word.
	var bhi, blo uint64
	sticky := false
	switch {
	case shift == 0:
		bhi = b.sig
	case shift < 64:
		bhi = b.sig >> uint(shift)
		blo = b.sig << uint(64-shift)
	case shift < 128:
		blo = b.sig >> uint(shift-64)
		sticky = b.sig<<uint(128-shift) != 0
	default:
		sticky = b.sig != 0
	}
	hi, lo := a.sig, uint64(0)
	var borrow uint64
	lo, borrow = bits.Sub64(lo, blo, 0)
	hi, _ = bits.Sub64(hi, bhi, borrow)
	if sticky {
		// True result is (hi:lo) - δ with 0 < δ < 1 ulp of lo: drop to
		// (hi:lo)-1 and keep sticky set.
		lo, borrow = bits.Sub64(lo, 1, 0)
		hi, _ = bits.Sub64(hi, 0, borrow)
	}
	// Normalize so the leading 1 sits at bit 62 of hi.
	out := unpacked{neg: a.neg, h: a.h}
	if hi == 0 {
		out.h -= 64
		hi, lo = lo, 0
		if hi == 0 {
			// Only sticky remained; result underflowed the 128-bit
			// window. It is tiny but nonzero; represent as the minimum
			// normalized magnitude at a very low scale.
			if sticky {
				out.h -= 64
				out.sig = 1 << 62
				return out, 0, true
			}
			return unpacked{zero: true}, 0, false
		}
	}
	lz := bits.LeadingZeros64(hi)
	adj := lz - 1 // want leading 1 at bit 62
	switch {
	case adj > 0:
		hi = hi<<uint(adj) | lo>>uint(64-adj)
		lo <<= uint(adj)
	case adj < 0: // leading 1 at bit 63: shift right one
		lo = hi<<63 | lo>>1
		hi >>= 1
	}
	out.h -= adj
	out.sig = hi
	return out, lo, sticky
}

// Mul returns the correctly rounded product of two posit bit patterns.
func Mul(cfg Config, a, b uint64) uint64 {
	ua, ub := unpack(cfg, a), unpack(cfg, b)
	if ua.nar || ub.nar {
		return cfg.NaR()
	}
	if ua.zero || ub.zero {
		return 0
	}
	hi, lo := bits.Mul64(ua.sig, ub.sig) // product in [2^124, 2^126)
	out := unpacked{neg: ua.neg != ub.neg, h: ua.h + ub.h}
	t := 2
	if hi>>61 != 0 { // top bit at 125
		t = 1
		out.h++
	}
	hi = hi<<uint(t) | lo>>uint(64-t)
	lo <<= uint(t)
	out.sig = hi
	return pack(cfg, out, lo, false)
}

// Div returns the correctly rounded quotient a / b. Division by zero
// and any operation on NaR yield NaR.
func Div(cfg Config, a, b uint64) uint64 {
	ua, ub := unpack(cfg, a), unpack(cfg, b)
	if ua.nar || ub.nar || ub.zero {
		return cfg.NaR()
	}
	if ua.zero {
		return 0
	}
	// sigA << 63 = Q × sigB + R, with Q in (2^62, 2^64).
	q, r := bits.Div64(ua.sig>>1, ua.sig<<63, ub.sig)
	out := unpacked{neg: ua.neg != ub.neg}
	var ext uint64
	if q >= 1<<63 {
		out.h = ua.h - ub.h
		out.sig = q >> 1
		ext = q << 63
	} else {
		out.h = ua.h - ub.h - 1
		out.sig = q
	}
	return pack(cfg, out, ext, r != 0)
}

// Sqrt returns the correctly rounded square root. Negative inputs and
// NaR yield NaR; zero yields zero.
func Sqrt(cfg Config, a uint64) uint64 {
	ua := unpack(cfg, a)
	if ua.nar || ua.neg {
		return cfg.NaR()
	}
	if ua.zero {
		return 0
	}
	m := ua.sig
	e := ua.h - 62
	if e&1 != 0 { // make the exponent even
		// m currently has its top bit at 62; doubling moves it to 63.
		m <<= 1
		e--
	}
	// S = floor(sqrt(m << 64)), S in [2^63, 2^64); value = S × 2^(e/2 - 32).
	s, rem := isqrt128(m, 0)
	out := unpacked{h: e/2 + 31, sig: s >> 1}
	ext := s << 63
	return pack(cfg, out, ext, rem)
}

// isqrt128 computes the integer square root of the 128-bit value hi:lo
// by binary digit recurrence, returning floor(sqrt) and whether a
// nonzero remainder exists.
func isqrt128(hi, lo uint64) (root uint64, remNonzero bool) {
	var rhi, rlo uint64 // remainder accumulator
	var q uint64        // root bits so far
	for i := 63; i >= 0; i-- {
		// Shift two bits from hi:lo into the remainder.
		rhi = rhi<<2 | rlo>>62
		rlo = rlo << 2
		if i >= 32 {
			rlo |= hi >> uint(2*(i-32)) & 3
		} else {
			rlo |= lo >> uint(2*i) & 3
		}
		// Trial subtrahend: (q << 2) | 1, at most 66 bits.
		thi := q >> 62
		tlo := q<<2 | 1
		// If remainder >= trial, subtract and set the root bit.
		if rhi > thi || (rhi == thi && rlo >= tlo) {
			var borrow uint64
			rlo, borrow = bits.Sub64(rlo, tlo, 0)
			rhi, _ = bits.Sub64(rhi, thi, borrow)
			q = q<<1 | 1
		} else {
			q <<= 1
		}
	}
	return q, rhi != 0 || rlo != 0
}

// Cmp compares two posit bit patterns, returning -1, 0 or +1. Posits
// order exactly as their bit patterns interpreted as signed N-bit
// integers (the monotonicity property of the encoding); NaR sorts
// below every real value.
func Cmp(cfg Config, a, b uint64) int {
	sa := signExtend(cfg, a)
	sb := signExtend(cfg, b)
	switch {
	case sa < sb:
		return -1
	case sa > sb:
		return 1
	}
	return 0
}

func signExtend(cfg Config, v uint64) int64 {
	v = cfg.Canon(v)
	shift := uint(64 - cfg.N)
	return int64(v<<shift) >> shift
}
