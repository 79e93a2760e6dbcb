package posit

import (
	"fmt"
	mbits "math/bits"
	"strings"
)

// FieldKind identifies which posit field a bit position belongs to.
type FieldKind int

const (
	// FieldSign is the single most significant bit.
	FieldSign FieldKind = iota
	// FieldRegime covers the run of identical bits after the sign plus
	// the terminating opposite bit (if present).
	FieldRegime
	// FieldExponent covers the up-to-ES exponent bits after the regime.
	FieldExponent
	// FieldFraction covers the remaining low bits.
	FieldFraction
)

func (k FieldKind) String() string {
	switch k {
	case FieldSign:
		return "sign"
	case FieldRegime:
		return "regime"
	case FieldExponent:
		return "exponent"
	case FieldFraction:
		return "fraction"
	}
	return fmt.Sprintf("FieldKind(%d)", int(k))
}

// Fields is the decomposition of a raw posit bit pattern into its
// variable-width fields, read directly from the two's-complement
// pattern as in eq. (2) of the paper (and §3 of the 2022 standard).
//
// For the special patterns zero and NaR the field values are zero and
// the IsZero / IsNaR flags are set.
type Fields struct {
	Cfg Config // the posit configuration the pattern was decoded under

	IsZero bool // pattern is the all-zeros special value
	IsNaR  bool // pattern is NaR (MSB set, rest zero)

	// Sign is the raw sign bit (1 for patterns with the MSB set).
	Sign uint

	// K is the regime run length: the number of identical bits
	// R_0..R_{K-1} before the terminating opposite bit R_K (paper
	// eq. 1). If the run extends to the end of the posit there is no
	// terminating bit and RegimeLen == K, otherwise RegimeLen == K+1.
	K         int
	RegimeLen int // physical regime length including any terminating bit
	// R is the regime value: -K when R_0 == 0, K-1 when R_0 == 1.
	R int

	// ExpLen is the number of exponent bits physically present
	// (0..ES); Exp is their value aligned as the most significant bits
	// of the ES-bit exponent (truncated low bits read as zero), as the
	// standard prescribes.
	ExpLen int
	Exp    uint64 // exponent value, MSB-aligned per ExpLen above

	// FracLen is the number of fraction bits present; Frac is their
	// value as an unsigned integer (paper eq. 3 defines f = Frac /
	// 2^FracLen).
	FracLen int
	Frac    uint64 // fraction bits as an unsigned integer (see FracLen)
}

// DecodeFields decomposes a raw posit bit pattern. It never fails:
// every N-bit pattern is a valid posit (zero, NaR, or a real value).
func DecodeFields(cfg Config, bits uint64) Fields {
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
	if cfg.IsNeg(bits) {
		f.Sign = 1
	}

	n := cfg.N
	// Payload: the n-1 bits after the sign, left-aligned at bit n-2.
	payload := bits & (cfg.Mask() >> 1)
	pos := n - 2 // next bit position to read

	// Regime: the run length of bits equal to the first payload bit,
	// found in O(1) by counting leading zeros of the (possibly
	// inverted) payload shifted to the top of the word.
	first := (payload >> uint(pos)) & 1
	top := payload << uint(64-(n-1))
	if first == 1 {
		top = ^top
	}
	k := mbits.LeadingZeros64(top)
	if k > n-1 {
		k = n - 1 // run extends to the end of the posit
	}
	pos -= k
	f.K = k
	if first == 1 {
		f.R = k - 1
	} else {
		f.R = -k
	}
	f.RegimeLen = k
	if pos >= 0 {
		// Terminating bit R_K is present; consume it.
		f.RegimeLen++
		pos--
	}

	// Exponent: up to ES bits, MSB-aligned when truncated.
	for i := 0; i < cfg.ES && pos >= 0; i++ {
		f.Exp = f.Exp<<1 | (payload>>uint(pos))&1
		f.ExpLen++
		pos--
	}
	f.Exp <<= uint(cfg.ES - f.ExpLen) // truncated low bits read as 0

	// Fraction: everything that remains.
	if pos >= 0 {
		f.FracLen = pos + 1
		f.Frac = payload & ((uint64(1) << uint(pos+1)) - 1)
	}
	return f
}

// FieldAndRegimeK is the field layout of a raw posit pattern: it
// returns the field that owns bit position pos (0 = LSB, N-1 = sign)
// and the regime run length k (paper eq. 1), both from one count of
// leading zeros, the way a posit hardware decoder finds every field
// boundary. The N-1 payload bits are left-aligned, XORed with their
// sign-extended first bit so a run of either direction reads as zeros,
// and counted with a guard bit planted below the payload that caps k
// at N-1. The terminating bit R_k then sits at position N-2-k (-1 when
// the run fills the payload), the up-to-ES exponent bits below it and
// the fraction below those.
//
// Zero and NaR have k = 0: position N-1 is the sign and every other
// position is regime (the run of identical bits covers the payload).
// It panics when pos lies outside [0, N).
func FieldAndRegimeK(cfg Config, bits uint64, pos int) (FieldKind, int) {
	n := cfg.N
	if pos < 0 || pos >= n {
		panic(fmt.Sprintf("posit: bit position %d out of range for %v", pos, cfg))
	}
	x := bits << uint(65-n) // the payload at the top: the sign and any bits above N shift out
	if x == 0 {
		if pos == n-1 {
			return FieldSign, 0
		}
		return FieldRegime, 0
	}
	m := uint64(int64(x) >> 63) // all ones when the run is a run of ones
	k := mbits.LeadingZeros64((x ^ m) | uint64(1)<<uint(64-n))
	rk := n - 2 - k // position of the terminating bit R_k
	switch {
	case pos == n-1:
		return FieldSign, k
	case pos >= rk:
		return FieldRegime, k
	case pos >= rk-cfg.ES:
		return FieldExponent, k
	}
	return FieldFraction, k
}

// FieldAt reports which field the bit at position pos (0 = LSB,
// N-1 = sign) belongs to in the raw pattern bits: FieldAndRegimeK
// without k.
func FieldAt(cfg Config, bits uint64, pos int) FieldKind {
	f, _ := FieldAndRegimeK(cfg, bits, pos)
	return f
}

// FracValue returns f = Frac / 2^FracLen in [0, 1), paper eq. 3.
func (f Fields) FracValue() float64 {
	if f.FracLen == 0 {
		return 0
	}
	return float64(f.Frac) / float64(uint64(1)<<uint(f.FracLen))
}

// BitString renders the pattern with '|' separators between the sign,
// regime, exponent and fraction fields, e.g. "0|10|00|0100…" — the
// format used by the paper's worked examples (Figs. 5, 6, 12, 15).
// Zero and NaR render as the sign and one regime run.
func BitString(cfg Config, bits uint64) string {
	var b strings.Builder
	prev := FieldSign
	for p := cfg.N - 1; p >= 0; p-- {
		if f := FieldAt(cfg, bits, p); f != prev {
			b.WriteByte('|')
			prev = f
		}
		b.WriteByte('0' + byte(bits>>uint(p)&1))
	}
	return b.String()
}

// RegimeRunLength implements paper eq. 1 from a magnitude: the regime
// run length k of the posit nearest to p, read off its encoded
// pattern. For p >= 1, k = floor(log_useed p) + 1; for 0 < p < 1,
// k = -floor(log_useed p). p must be a positive finite float; the
// result lies in [1, N-1].
func RegimeRunLength(cfg Config, p float64) int {
	if p <= 0 {
		panic("posit: RegimeRunLength requires p > 0")
	}
	_, k := FieldAndRegimeK(cfg, EncodeFloat64(cfg, p), cfg.N-1)
	return k
}
