// Package analysis implements the paper's analytical companion pieces:
// one analysis of a single-bit flip for every codec (Analyze, Sweep),
// built on the derivation campaigns use and naming the flip mechanisms
// the paper describes in §5 (regime expansion, regime inversion,
// sign-magnitude coupling); closed forms that predict a posit flip's
// value without decoding the flipped pattern (the "mathematical
// analysis could be done to predict potential error" future-work
// item); and the decimal-accuracy-vs-magnitude profile of Fig. 7.
package analysis

import (
	"math"

	"positres/internal/core"
	"positres/internal/numfmt"
	"positres/internal/posit"
	"positres/internal/qcat"
)

// Class names the mechanism by which a single-bit flip perturbs a
// value. A posit flip's class is one of the constants below, the
// paper's §5 taxonomy; an IEEE flip's is the name of the kind of
// pattern the flip produces (ieee754.FlipOutcome: "finite", "nan",
// "inf", "zero" or "subnormal").
type Class string

const (
	// ClassSign: the sign bit flipped. Unlike IEEE-754, this changes
	// the magnitude too (§5.7).
	ClassSign Class = "sign"
	// ClassRegimeExpand: the terminating regime bit R_k flipped, so
	// the run absorbs the following bits and the regime grows —
	// the dominant error for |v| > 1 (§5.4.1, Fig. 12).
	ClassRegimeExpand Class = "regime-expand"
	// ClassRegimeShrink: a run bit R_i (0 < i < k) flipped, cutting
	// the run short and shrinking the magnitude (§5.4.1, Fig. 13).
	ClassRegimeShrink Class = "regime-shrink"
	// ClassRegimeInvert: the leading run bit R_0 flipped with k > 1,
	// inverting the regime direction (magnitude jumps across 1).
	ClassRegimeInvert Class = "regime-invert"
	// ClassRegimeInvertExpand: the sole regime run bit flipped (k = 1),
	// inverting AND expanding the regime — the paper's Fig. 15 edge
	// case with absolute-error spikes up to 1e11.
	ClassRegimeInvertExpand Class = "regime-invert-expand"
	// ClassExponent: an exponent bit flipped (≤ ×4 magnitude shift,
	// §5.6).
	ClassExponent Class = "exponent"
	// ClassFraction: a fraction bit flipped (linear perturbation,
	// §5.5).
	ClassFraction Class = "fraction"
	// ClassToNaR / ClassFromNaR / ClassFromZero: special patterns.
	ClassToNaR    Class = "to-NaR"
	ClassFromNaR  Class = "from-NaR"
	ClassFromZero Class = "from-zero"
)

// Flip is the analysis of one single-bit flip of an encoded pattern:
// core.Deriver.FromPattern's derivation, the one every campaign trial
// and /v1/inject share, with the error measured against the decoded
// pattern and the flip's mechanism.
type Flip struct {
	core.Flip     // the decoded pattern, the faulty pattern and value, the field and k
	qcat.PointErr // FaultyVal measured against ReprValue

	Pos  int    // flipped bit position, 0 = LSB
	Bits uint64 // the pattern, masked to the codec width
	// Class is the flip's §5 mechanism for a posit, the kind of
	// faulty pattern for an IEEE format.
	Class Class
	// FaultyK is the regime run length k of FaultyBits, and RegimeDelta
	// the change in regime value r from Bits to FaultyBits (each unit
	// scales by useed = 2^2^ES). Both are 0 for IEEE formats.
	FaultyK, RegimeDelta int
}

// Analyze predicts the outcome of flipping bit pos of the pattern
// bits of codec, without running an injection. Bits above the codec
// width are ignored.
func Analyze(codec numfmt.Codec, bits uint64, pos int) Flip {
	w := codec.Width()
	bits &= ^uint64(0) >> uint(64-w)
	f := Flip{Flip: core.NewDeriver(codec).FromPattern(bits, pos), Pos: pos, Bits: bits}
	f.PointErr = qcat.Point(f.ReprValue, f.FaultyVal)
	switch c := codec.(type) {
	case numfmt.RegimeSizer:
		f.FaultyK = c.RegimeK(f.FaultyBits)
		f.RegimeDelta = regime(w, f.FaultyBits, f.FaultyK) - regime(w, bits, f.RegimeK)
		f.Class = positClass(w, bits, f.FaultyBits, f.FieldName, f.RegimeK, pos)
	case *numfmt.IEEECodec:
		f.Class = Class(c.Fmt.ClassifyFlip(bits, pos).String())
	}
	return f
}

// Sweep analyzes the flip of every bit of a pattern, LSB first — the
// per-value sweep behind the paper's worked examples.
func Sweep(codec numfmt.Codec, bits uint64) []Flip {
	out := make([]Flip, codec.Width())
	for pos := range out {
		out[pos] = Analyze(codec, bits, pos)
	}
	return out
}

// regime is the regime value r of an n-bit posit pattern with run
// length k (paper eq. 1): k-1 for a run of ones, -k for a run of zeros
// (0 for zero and NaR, whose k is 0).
func regime(n int, bits uint64, k int) int {
	if bits>>uint(n-2)&1 == 1 {
		return k - 1
	}
	return -k
}

// positClass is the §5 mechanism of flipping bit pos of an n-bit posit
// pattern into faulty, given the field owning the bit and the
// pattern's run length k. The sign, exponent and fraction classes are
// their field's name. In the regime field, R_0 sits at bit n-2 and the
// terminating bit R_k at n-2-k.
func positClass(n int, bits, faulty uint64, field string, k, pos int) Class {
	nar := uint64(1) << uint(n-1)
	switch {
	case bits == nar:
		return ClassFromNaR
	case bits == 0:
		return ClassFromZero
	case faulty == nar:
		return ClassToNaR
	case field != "regime":
		return Class(field)
	case pos == n-2-k:
		return ClassRegimeExpand
	case pos == n-2 && k == 1:
		return ClassRegimeInvertExpand
	case pos == n-2:
		return ClassRegimeInvert
	}
	return ClassRegimeShrink
}

// RegimeExpansionScale returns the paper's §5.4.1 closed form for an
// R_k flip: the magnitude scales by useed^Δr = 2^(2^ES · Δr) up to the
// reinterpretation of the exponent and fraction bits (a factor within
// [2^-(2^ES+1), 2^(2^ES+1))). The returned value is the pure regime
// contribution 2^(2^ES·Δr).
func RegimeExpansionScale(cfg posit.Config, flip Flip) float64 {
	return math.Exp2(float64(int(1) << uint(cfg.ES) * flip.RegimeDelta))
}
