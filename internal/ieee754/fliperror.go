package ieee754

import "math"

// This file implements the closed-form bit-flip error model for
// IEEE-754 values (Elliott et al., "Quantifying the impact of single
// bit flips on floating point arithmetic"), which §3.1 of the paper
// summarizes:
//
//   - flipping the sign bit leaves the magnitude unchanged, so the
//     absolute error is exactly 2|v| and the relative error exactly 2;
//   - flipping exponent bit i multiplies or divides the value by
//     2^(2^i), depending on the bit's current state, so the relative
//     error is |2^(±2^i) − 1|;
//   - flipping fraction bit i perturbs the value by exactly
//     2^(e − bias + i − FracBits), so the relative error is bounded by
//     2^(i − FracBits) (and equals 2^(i−FracBits)/(1+f) exactly).
//
// The model applies to normal, nonzero values whose flip does not
// produce a special pattern (Inf/NaN) — the same regime the paper's
// Figure 3 plots.

// FlipOutcome classifies the result of a single-bit flip.
type FlipOutcome int

const (
	// OutcomeFinite means the flipped pattern is an ordinary finite value.
	OutcomeFinite FlipOutcome = iota
	// OutcomeNaN means the flip produced a NaN pattern.
	OutcomeNaN
	// OutcomeInf means the flip produced ±Inf.
	OutcomeInf
	// OutcomeZero means the flip produced ±0.
	OutcomeZero
	// OutcomeSubnormal means the flip produced a subnormal value.
	OutcomeSubnormal
)

func (o FlipOutcome) String() string {
	switch o {
	case OutcomeFinite:
		return "finite"
	case OutcomeNaN:
		return "nan"
	case OutcomeInf:
		return "inf"
	case OutcomeZero:
		return "zero"
	case OutcomeSubnormal:
		return "subnormal"
	}
	return "unknown"
}

// ClassifyFlip reports what kind of pattern flipping bit pos produces.
func (f Format) ClassifyFlip(b uint64, pos int) FlipOutcome {
	nb := (b ^ uint64(1)<<uint(pos)) & f.Mask()
	switch {
	case f.IsNaN(nb):
		return OutcomeNaN
	case f.IsInf(nb):
		return OutcomeInf
	case f.IsZero(nb):
		return OutcomeZero
	case f.IsSubnormal(nb):
		return OutcomeSubnormal
	}
	return OutcomeFinite
}

// TheoreticalRelError returns the closed-form relative error
// |orig − faulty| / |orig| for flipping bit pos of the normal, nonzero
// value encoded by b, per the Elliott model. It returns NaN when the
// model does not apply (b is zero, subnormal, or special, or the flip
// produces Inf/NaN).
func (f Format) TheoreticalRelError(b uint64, pos int) float64 {
	fd := f.DecodeFields(b)
	maxExp := uint64(1)<<uint(f.ExpBits) - 1
	if fd.Exp == 0 || fd.Exp == maxExp {
		return math.NaN() // zero, subnormal, Inf or NaN: model out of scope
	}
	switch f.FieldAt(pos) {
	case FieldSign:
		return 2
	case FieldExponent:
		i := pos - f.FracBits // exponent-internal bit index
		if f.ClassifyFlip(b, pos) != OutcomeFinite {
			// Inf/NaN (or a subnormal, whose implicit bit changes the
			// formula): out of the model's scope.
			return math.NaN()
		}
		// New value = old × 2^(±2^i): relative error |2^(±2^i) − 1|.
		if fd.Exp&(uint64(1)<<uint(i)) == 0 {
			// Bit currently 0: flipping multiplies by 2^(2^i).
			return math.Exp2(float64(int(1)<<uint(i))) - 1
		}
		// Bit currently 1: flipping divides by 2^(2^i).
		return 1 - math.Exp2(-float64(int(1)<<uint(i)))
	default: // fraction
		// Perturbation is ±2^(pos − FracBits) relative to the hidden 1;
		// relative to the full significand 1+f it is scaled by 1/(1+f).
		sig := 1 + float64(fd.Frac)/math.Exp2(float64(f.FracBits))
		return math.Exp2(float64(pos-f.FracBits)) / sig
	}
}
