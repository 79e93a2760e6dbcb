// Package ieee754 provides bit-level access to IEEE-754 binary
// floating-point formats: field decomposition, a generic software
// codec for arbitrary exponent/fraction splits (binary16, bfloat16,
// binary32, binary64), special-value classification, and the
// closed-form per-bit flip error model of Elliott et al. that the
// paper uses as the IEEE baseline.
package ieee754

import (
	"fmt"
	"math"
	"math/bits"
)

// FieldKind identifies which IEEE-754 field a bit position belongs to.
type FieldKind int

const (
	// FieldSign is the single most significant bit.
	FieldSign FieldKind = iota
	// FieldExponent covers the biased-exponent bits.
	FieldExponent
	// FieldFraction covers the trailing significand bits.
	FieldFraction
)

func (k FieldKind) String() string {
	switch k {
	case FieldSign:
		return "sign"
	case FieldExponent:
		return "exponent"
	case FieldFraction:
		return "fraction"
	}
	return fmt.Sprintf("FieldKind(%d)", int(k))
}

// Format describes an IEEE-754-style binary interchange format.
// Unlike posits, the field layout is static: 1 sign bit, ExpBits
// exponent bits, FracBits fraction bits, Width = 1+ExpBits+FracBits.
type Format struct {
	Name     string // format name, e.g. "ieee32"
	ExpBits  int    // exponent field width in bits
	FracBits int    // fraction field width in bits
}

// The four formats used by the experiments. Binary32 is the paper's
// IEEE baseline; Binary16 and BFloat16 support the mixed-precision
// extension experiments.
var (
	Binary16 = Format{Name: "ieee16", ExpBits: 5, FracBits: 10}
	BFloat16 = Format{Name: "bfloat16", ExpBits: 8, FracBits: 7}
	Binary32 = Format{Name: "ieee32", ExpBits: 8, FracBits: 23}
	Binary64 = Format{Name: "ieee64", ExpBits: 11, FracBits: 52}
)

// Width returns the total format width in bits.
func (f Format) Width() int { return 1 + f.ExpBits + f.FracBits }

// Bias returns the exponent bias 2^(ExpBits-1) - 1.
func (f Format) Bias() int { return (1 << uint(f.ExpBits-1)) - 1 }

// EMax returns the largest unbiased exponent of a finite value.
func (f Format) EMax() int { return f.Bias() }

// EMin returns the unbiased exponent of the smallest normal value.
func (f Format) EMin() int { return 1 - f.Bias() }

// Mask returns the Width-bit mask.
func (f Format) Mask() uint64 {
	if f.Width() >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(f.Width())) - 1
}

// SignMask returns the sign-bit mask.
func (f Format) SignMask() uint64 { return uint64(1) << uint(f.Width()-1) }

func (f Format) expMask() uint64 { return (uint64(1)<<uint(f.ExpBits) - 1) << uint(f.FracBits) }
func (f Format) fracMask() uint64 {
	return uint64(1)<<uint(f.FracBits) - 1
}

// FieldAt reports the field owning bit position pos (0 = LSB). The
// layout is static, so no value is needed — the asymmetry with posits
// that the paper exploits.
func (f Format) FieldAt(pos int) FieldKind {
	switch {
	case pos < 0 || pos >= f.Width():
		panic(fmt.Sprintf("ieee754: FieldAt position %d out of range for %s", pos, f.Name))
	case pos == f.Width()-1:
		return FieldSign
	case pos >= f.FracBits:
		return FieldExponent
	default:
		return FieldFraction
	}
}

// Fields is a decomposed bit pattern.
type Fields struct {
	Sign uint   // 0 or 1
	Exp  uint64 // biased exponent field
	Frac uint64 // trailing significand
}

// DecodeFields splits a bit pattern into its three fields.
func (f Format) DecodeFields(b uint64) Fields {
	b &= f.Mask()
	return Fields{
		Sign: uint(b >> uint(f.Width()-1)),
		Exp:  (b & f.expMask()) >> uint(f.FracBits),
		Frac: b & f.fracMask(),
	}
}

// IsNaN reports whether the pattern encodes a NaN.
func (f Format) IsNaN(b uint64) bool {
	fd := f.DecodeFields(b)
	return fd.Exp == uint64(1)<<uint(f.ExpBits)-1 && fd.Frac != 0
}

// IsInf reports whether the pattern encodes ±Inf.
func (f Format) IsInf(b uint64) bool {
	fd := f.DecodeFields(b)
	return fd.Exp == uint64(1)<<uint(f.ExpBits)-1 && fd.Frac == 0
}

// IsSubnormal reports whether the pattern encodes a nonzero subnormal.
func (f Format) IsSubnormal(b uint64) bool {
	fd := f.DecodeFields(b)
	return fd.Exp == 0 && fd.Frac != 0
}

// IsZero reports whether the pattern encodes ±0.
func (f Format) IsZero(b uint64) bool {
	return b&f.Mask()&^f.SignMask() == 0
}

// Inf returns the bit pattern of ±Inf.
func (f Format) Inf(sign int) uint64 {
	b := f.expMask()
	if sign < 0 {
		b |= f.SignMask()
	}
	return b
}

// NaN returns the canonical quiet-NaN pattern.
func (f Format) NaN() uint64 {
	return f.expMask() | uint64(1)<<uint(f.FracBits-1)
}

// MaxFinite returns the bit pattern of the largest finite value.
func (f Format) MaxFinite() uint64 {
	return (f.expMask() - (uint64(1) << uint(f.FracBits))) | f.fracMask()
}

// Decode converts a bit pattern to float64. Exact for every format no
// wider than binary64.
func (f Format) Decode(b uint64) float64 {
	if f == Binary64 {
		return math.Float64frombits(b)
	}
	fd := f.DecodeFields(b)
	maxExp := uint64(1)<<uint(f.ExpBits) - 1
	sign := 1.0
	if fd.Sign == 1 {
		sign = -1
	}
	switch fd.Exp {
	case maxExp:
		if fd.Frac != 0 {
			return math.NaN()
		}
		return sign * math.Inf(1)
	case 0: // subnormal or zero
		return sign * math.Ldexp(float64(fd.Frac), f.EMin()-f.FracBits)
	}
	sig := float64(fd.Frac | uint64(1)<<uint(f.FracBits))
	return sign * math.Ldexp(sig, int(fd.Exp)-f.Bias()-f.FracBits)
}

// Encode converts a float64 to the format with IEEE round-to-nearest-
// even, handling subnormals, overflow to ±Inf and underflow to ±0.
func (f Format) Encode(x float64) uint64 {
	if f == Binary64 {
		return math.Float64bits(x)
	}
	if math.IsNaN(x) {
		return f.NaN()
	}
	var sign uint64
	if math.Signbit(x) {
		sign = f.SignMask()
	}
	if math.IsInf(x, 0) {
		return sign | f.expMask()
	}
	if x == 0 {
		return sign
	}

	fb := math.Float64bits(math.Abs(x))
	rawExp := int(fb >> 52)
	man := fb & (1<<52 - 1)
	var h int
	if rawExp == 0 { // float64 subnormal: normalize
		shift := bits.LeadingZeros64(man) - 11
		man = (man << uint(shift+1)) & (1<<52 - 1)
		h = -1022 - (shift + 1)
	} else {
		h = rawExp - 1023
	}

	// sig52 = 1.man in fixed point with 52 fraction bits.
	drop := 52 - f.FracBits // bits to discard for a normal result
	e := h + f.Bias()       // tentative biased exponent

	if e <= 0 {
		// Subnormal (or underflow): shift the full significand right
		// until the exponent is EMin, then round.
		extra := 1 - e
		drop += extra
		e = 0
		if drop >= 64 {
			// Far below the smallest subnormal: rounds to zero unless
			// exactly at the boundary, which can't happen this deep.
			return sign
		}
	}

	full := man | 1<<52 // 53-bit significand
	var kept, rem uint64
	kept = full >> uint(drop)
	rem = full & ((uint64(1) << uint(drop)) - 1)
	guard := uint64(0)
	if drop > 0 {
		guard = (full >> uint(drop-1)) & 1
		rem &^= uint64(1) << uint(drop-1)
	}
	if guard == 1 && (rem != 0 || kept&1 == 1) {
		kept++
	}

	if e == 0 {
		// kept includes no implicit bit; it may have rounded up into
		// the normal range (kept == 2^FracBits), which is exactly the
		// smallest normal: the encoding below handles it naturally.
		b := sign | kept
		return b
	}
	// Normal: kept holds 1+FracBits bits (implicit bit at FracBits),
	// possibly +1 from rounding carry.
	if kept >= uint64(1)<<uint(f.FracBits+1) {
		kept >>= 1
		e++
	}
	if e >= int(uint64(1)<<uint(f.ExpBits))-1 {
		return sign | f.expMask() // overflow to ±Inf
	}
	return sign | uint64(e)<<uint(f.FracBits) | kept&f.fracMask()
}
