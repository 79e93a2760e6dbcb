package posit

// Reference implementations used only by tests: an exact rational
// rounder that implements the standard's rounding rule (saturate, then
// round-to-nearest-even on the bit stream) straight from a big.Rat,
// independently of the integer tricks in arith.go, and bit-walking
// decoders that share no code with the one count of the regime run.

import (
	"math"
	"math/big"
)

var (
	ratOne = big.NewRat(1, 1)
	ratTwo = big.NewRat(2, 1)
)

// pow2Rat returns 2^e as a big.Rat for any integer e.
func pow2Rat(e int) *big.Rat {
	r := new(big.Rat)
	if e >= 0 {
		r.SetInt(new(big.Int).Lsh(big.NewInt(1), uint(e)))
	} else {
		r.SetFrac(big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), uint(-e)))
	}
	return r
}

// refRoundRat rounds the exact rational v to a posit using the
// standard rule, producing the bit pattern. It mirrors the definition
// in the 2022 standard: write |v| = 2^h × (1 + f), f ∈ [0,1); emit the
// regime/exponent/fraction bit stream; truncate to N-1 payload bits;
// round to nearest, ties to even, using guard and sticky; saturate so
// nonzero values never become 0 or NaR.
func refRoundRat(cfg Config, v *big.Rat) uint64 {
	sign := v.Sign()
	if sign == 0 {
		return 0
	}
	av := new(big.Rat).Abs(v)

	// h = floor(log2 av): estimate from numerator/denominator bit
	// lengths, then correct by comparison.
	h := av.Num().BitLen() - av.Denom().BitLen()
	for av.Cmp(pow2Rat(h)) < 0 {
		h--
	}
	for av.Cmp(pow2Rat(h+1)) >= 0 {
		h++
	}

	// t = av / 2^h - 1 ∈ [0, 1); extract 64 tail bits by doubling.
	t := new(big.Rat).Quo(av, pow2Rat(h))
	t.Sub(t, ratOne)
	var tail uint64
	for i := 0; i < 64; i++ {
		t.Mul(t, ratTwo)
		tail <<= 1
		if t.Cmp(ratOne) >= 0 {
			tail |= 1
			t.Sub(t, ratOne)
		}
	}
	sticky := t.Sign() != 0

	p := assemble(cfg, h, tail, sticky)
	if sign < 0 {
		p = cfg.Negate(p)
	}
	return p
}

// refDecodeFields is the field decomposition DecodeFields is checked
// against: it walks the payload one bit at a time from the top,
// through the regime run, its terminating bit, up to ES exponent bits
// and the fraction.
func refDecodeFields(cfg Config, bits uint64) Fields {
	bits = cfg.Canon(bits)
	f := Fields{Cfg: cfg}
	if bits == 0 {
		f.IsZero = true
		return f
	}
	if bits == cfg.NaR() {
		f.IsNaR = true
		f.Sign = 1
		return f
	}
	f.Sign = uint(bits >> uint(cfg.N-1))
	bit := func(pos int) uint64 { return bits >> uint(pos) & 1 }
	pos := cfg.N - 2 // next bit to read
	first := bit(pos)
	for pos >= 0 && bit(pos) == first {
		f.K++
		pos--
	}
	f.R = -f.K
	if first == 1 {
		f.R = f.K - 1
	}
	f.RegimeLen = f.K
	if pos >= 0 { // the terminating bit R_k
		f.RegimeLen++
		pos--
	}
	for ; f.ExpLen < cfg.ES && pos >= 0; pos-- {
		f.Exp = f.Exp<<1 | bit(pos)
		f.ExpLen++
	}
	f.Exp <<= uint(cfg.ES - f.ExpLen) // truncated low bits read as 0
	for ; pos >= 0; pos-- {
		f.Frac = f.Frac<<1 | bit(pos)
		f.FracLen++
	}
	return f
}

// refDecode is the decode DecodeFloat64 is checked against: it negates
// a negative pattern, reads the magnitude through refDecodeFields and
// returns (1 + f) × 2^((r << ES) + e) through math.Ldexp.
func refDecode(cfg Config, bits uint64) float64 {
	b := cfg.Canon(bits)
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
	f := refDecodeFields(cfg, b)
	sig := uint64(1)<<uint(f.FracLen) + f.Frac
	v := math.Ldexp(float64(sig), f.R<<uint(cfg.ES)+int(f.Exp)-f.FracLen)
	if neg {
		v = -v
	}
	return v
}

// ratFromPosit returns the exact rational value of a posit pattern.
func ratFromPosit(cfg Config, bits uint64) *big.Rat {
	b := cfg.Canon(bits)
	if b == 0 {
		return new(big.Rat)
	}
	if b == cfg.NaR() {
		panic("ratFromPosit: NaR has no rational value")
	}
	neg := cfg.IsNeg(b)
	if neg {
		b = cfg.Negate(b)
	}
	f := refDecodeFields(cfg, b)
	h := (f.R << uint(cfg.ES)) + int(f.Exp)
	sig := new(big.Int).SetUint64((uint64(1) << uint(f.FracLen)) + f.Frac)
	v := new(big.Rat).SetInt(sig)
	v.Mul(v, pow2Rat(h-f.FracLen))
	if neg {
		v.Neg(v)
	}
	return v
}

// refFieldAt classifies bit pos from a full refDecodeFields
// decomposition: the reference FieldAndRegimeK is checked against.
func refFieldAt(cfg Config, bits uint64, pos int) FieldKind {
	if pos < 0 || pos >= cfg.N {
		panic("posit: refFieldAt position out of range")
	}
	if pos == cfg.N-1 {
		return FieldSign
	}
	f := refDecodeFields(cfg, bits)
	if f.IsZero || f.IsNaR {
		return FieldRegime
	}
	// Positions, from the top: sign at N-1, regime occupies the next
	// RegimeLen bits, then ExpLen exponent bits, then fraction.
	regimeLow := cfg.N - 1 - f.RegimeLen
	expLow := regimeLow - f.ExpLen
	switch {
	case pos >= regimeLow:
		return FieldRegime
	case pos >= expLow:
		return FieldExponent
	default:
		return FieldFraction
	}
}

// refAssemble pushes the regime, exponent and tail bits into a
// 128-bit stream one chunk at a time and drops any stream bit past the
// 128th, where assemble counts it toward sticky: the reference
// assemble is checked against.
func refAssemble(cfg Config, h int, tail uint64, stickyIn bool) uint64 {
	maxScale := cfg.MaxScale()
	if h >= maxScale {
		return cfg.MaxPosBits()
	}
	if h < -maxScale {
		return cfg.MinPosBits()
	}

	r := h >> uint(cfg.ES)               // regime value (floor division)
	e := uint64(h - (r << uint(cfg.ES))) // exponent in [0, 2^ES)

	var hi, lo uint64
	var streamLen int // number of stream bits produced

	pushBits := func(v uint64, width int) {
		// Append the low `width` bits of v to the stream.
		for width > 0 {
			take := width
			space := 128 - streamLen
			if take > space {
				take = space
			}
			if take <= 0 {
				return
			}
			chunk := (v >> uint(width-take)) & maskN(take)
			// Place chunk so its MSB lands at stream bit (127-streamLen).
			shift := 128 - streamLen - take
			if shift >= 64 {
				hi |= chunk << uint(shift-64)
			} else {
				hi |= chunk >> uint(64-shift)
				if shift > 0 {
					lo |= chunk << uint(shift)
				} else {
					lo |= chunk
				}
			}
			streamLen += take
			width -= take
		}
	}

	if r >= 0 {
		pushBits(maskN(r+1), r+1) // r+1 ones
		pushBits(0, 1)            // terminating zero
	} else {
		pushBits(0, -r) // -r zeros
		pushBits(1, 1)  // terminating one
	}
	if cfg.ES > 0 {
		pushBits(e, cfg.ES)
	}
	pushBits(tail, 64)

	pn := cfg.N - 1
	payload := hi >> uint(64-pn)
	guard := (hi >> uint(64-pn-1)) & 1
	stickyBits := lo != 0 || stickyIn
	if 64-pn-1 > 0 {
		stickyBits = stickyBits || hi&maskN(64-pn-1) != 0
	}
	if guard == 1 && (stickyBits || payload&1 == 1) {
		payload++
	}
	return payload
}

// refEncode encodes x through refAssemble, splitting it with
// math.Frexp rather than EncodeFloat64's own handling of the float64
// bits (subnormals included).
func refEncode(cfg Config, x float64) uint64 {
	if x == 0 {
		return 0
	}
	frac, exp := math.Frexp(math.Abs(x))   // |x| = frac × 2^exp, frac in [0.5, 1)
	tail := math.Float64bits(2*frac) << 12 // the fraction bits of 2·frac in [1, 2), left-aligned
	p := refAssemble(cfg, exp-1, tail, false)
	if x < 0 {
		p = cfg.Negate(p)
	}
	return p
}
