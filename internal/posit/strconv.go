package posit

import (
	"fmt"
	"math/big"
	"strings"
)

// Decimal conversion. Format renders a posit's exact value (every
// posit is a dyadic rational, so big.Float holds it exactly); Parse
// rounds an arbitrary decimal string to the nearest posit with the
// standard's rounding rule, without going through float64 (so posit64
// values parse correctly even beyond float64 precision).

// Format renders the posit's value like strconv.FormatFloat: format is
// 'e', 'f', 'g' (and friends accepted by big.Float.Text); prec is the
// digit count (-1 for the minimal digits that round-trip through
// Parse). Zero renders "0"; NaR renders "NaR".
func Format(cfg Config, bitsIn uint64, format byte, prec int) string {
	u := unpack(cfg, bitsIn)
	switch {
	case u.zero:
		return "0"
	case u.nar:
		return "NaR"
	}
	// Exact value: sig × 2^(h − 62). 64 mantissa bits suffice.
	// SetMantExp(v, e) computes v × 2^e.
	v := new(big.Float).SetPrec(64).SetUint64(u.sig)
	v.SetMantExp(v, u.h-62)
	if u.neg {
		v.Neg(v)
	}
	if prec < 0 {
		return shortest(cfg, v, format)
	}
	return v.Text(format, prec)
}

// shortest finds the minimal digit count whose Parse round-trips to
// the same pattern (posit32 needs at most 9 significant digits,
// posit64 at most 19).
func shortest(cfg Config, v *big.Float, format byte) string {
	for prec := 1; prec <= 21; prec++ {
		s := v.Text(format, prec)
		if p, err := Parse(cfg, s); err == nil {
			if q, err2 := Parse(cfg, v.Text('e', 25)); err2 == nil && p == q {
				return s
			}
		}
	}
	return v.Text(format, 21)
}

// Parse converts a decimal string (strconv.ParseFloat syntax, plus
// "NaR"/"nar") to the nearest posit, rounding exactly per the standard
// (round-to-nearest-even in the posit integer space, saturation at
// minpos/maxpos, never to zero or NaR).
func Parse(cfg Config, s string) (uint64, error) {
	t := strings.TrimSpace(s)
	switch strings.ToLower(t) {
	case "nar", "nan":
		return cfg.NaR(), nil
	case "", "+", "-":
		return 0, fmt.Errorf("posit: cannot parse %q", s)
	}
	r, ok := new(big.Rat).SetString(t)
	if !ok {
		// big.Rat rejects "inf"; map infinities to saturation per the
		// posit convention that no finite input overflows.
		switch strings.ToLower(t) {
		case "inf", "+inf", "infinity", "+infinity":
			return cfg.MaxPosBits(), nil
		case "-inf", "-infinity":
			return cfg.Negate(cfg.MaxPosBits()), nil
		}
		return 0, fmt.Errorf("posit: cannot parse %q", s)
	}
	return roundRat(cfg, r), nil
}

// roundRat rounds an exact rational to a posit with the standard rule
// (the mirror of assemble's guard/sticky path, driven by big.Rat).
func roundRat(cfg Config, v *big.Rat) uint64 {
	sign := v.Sign()
	if sign == 0 {
		return 0
	}
	av := new(big.Rat).Abs(v)
	// h = floor(log2 av).
	h := av.Num().BitLen() - av.Denom().BitLen()
	for av.Cmp(pow2(h)) < 0 {
		h--
	}
	for av.Cmp(pow2(h+1)) >= 0 {
		h++
	}
	// tail = first 64 bits of av/2^h − 1, sticky for the rest.
	t := new(big.Rat).Quo(av, pow2(h))
	t.Sub(t, big.NewRat(1, 1))
	two := big.NewRat(2, 1)
	one := big.NewRat(1, 1)
	var tail uint64
	for i := 0; i < 64; i++ {
		t.Mul(t, two)
		tail <<= 1
		if t.Cmp(one) >= 0 {
			tail |= 1
			t.Sub(t, one)
		}
	}
	p := assemble(cfg, h, tail, t.Sign() != 0)
	if sign < 0 {
		p = cfg.Negate(p)
	}
	return p
}

// pow2 returns 2^e as a big.Rat.
func pow2(e int) *big.Rat {
	r := new(big.Rat)
	if e >= 0 {
		r.SetInt(new(big.Int).Lsh(big.NewInt(1), uint(e)))
	} else {
		r.SetFrac(big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), uint(-e)))
	}
	return r
}

// ParseP32 is a convenience wrapper for the standard 32-bit format.
func ParseP32(s string) (Posit32, error) {
	b, err := Parse(Std32, s)
	return Posit32(b), err
}

// Text renders p like strconv.FormatFloat.
func (p Posit32) Text(format byte, prec int) string {
	return Format(Std32, uint64(p), format, prec)
}

// Text renders p like strconv.FormatFloat.
func (p Posit16) Text(format byte, prec int) string {
	return Format(Std16, uint64(p), format, prec)
}

// Text renders p like strconv.FormatFloat.
func (p Posit8) Text(format byte, prec int) string {
	return Format(Std8, uint64(p), format, prec)
}

// Text renders p like strconv.FormatFloat.
func (p Posit64) Text(format byte, prec int) string {
	return Format(Std64, uint64(p), format, prec)
}
