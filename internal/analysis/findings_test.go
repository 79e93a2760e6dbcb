package analysis

// findings_test restates the format-level halves of the paper's §5
// findings on every pattern of the formats narrow enough to enumerate:
// posit8, posit16, ieee16 and bfloat16. Each check selects its flips by
// class and analyzes them through Analyze, the derivation campaigns
// use. The dataset-level halves, which need a campaign over a field,
// stay sampled in internal/core.

import (
	"math"
	"slices"
	"testing"

	"positres/internal/ieee754"
)

// positivePattern is one positive pattern of a posit codec with the
// analysis of the flip of each of its bits.
type positivePattern struct {
	bits  uint64
	v     float64 // the decoded pattern
	k     int     // regime run length
	flips []Flip  // flips[bit]
}

// flip returns the pattern's flip of class c, and whether it has one.
// A positive pattern has at most one flip of each regime class and of
// ClassSign.
func (p positivePattern) flip(c Class) (Flip, bool) {
	for _, f := range p.flips {
		if f.Class == c {
			return f, true
		}
	}
	return Flip{}, false
}

// eachPositivePattern runs visit over every positive pattern of a
// posit codec, through Sweep. The test fails unless the R_k flip (the
// one of ClassRegimeExpand) is the lowest bit of the regime field, and
// only a run that fills the payload has none.
func eachPositivePattern(t *testing.T, name string, visit func(p positivePattern)) {
	t.Helper()
	codec := mustLookup(name)
	n := codec.Width()
	for bits := uint64(1); bits < 1<<uint(n-1); bits++ {
		flips := Sweep(codec, bits)
		p := positivePattern{bits: bits, v: flips[0].ReprValue, k: flips[0].RegimeK, flips: flips}
		lowest := n // lowest regime bit
		for bit, f := range flips {
			if f.FieldName == "regime" && bit < lowest {
				lowest = bit
			}
		}
		rk, ok := p.flip(ClassRegimeExpand)
		if ok != (p.k < n-1) || ok && rk.Pos != lowest {
			t.Fatalf("%s %#x: k %d, R_k flip at bit %d (found %v), the regime field ends at bit %d", name, bits, p.k, rk.Pos, ok, lowest)
		}
		visit(p)
	}
}

// TestFinding3ExponentNoSpikeExhaustive restates Finding 3 (§5.6,
// Figs. 17–18) on every positive posit8 and posit16 pattern: an
// exponent-bit flip moves the exponent by 1 or 2, scaling the value by
// at most 4, so no flip's relative error exceeds 3. The worst is
// exactly 3, and no flip is an exception.
func TestFinding3ExponentNoSpikeExhaustive(t *testing.T) {
	for _, c := range []struct {
		codec string
		flips int
	}{
		{"posit8", 244},
		{"posit16", 65524},
	} {
		var exceptions []uint64
		flips, worst := 0, 0.0
		eachPositivePattern(t, c.codec, func(p positivePattern) {
			for _, f := range p.flips {
				if f.Class != ClassExponent {
					continue
				}
				flips++
				worst = max(worst, f.RelErr)
				if f.RelErr > 3 {
					exceptions = append(exceptions, p.bits)
				}
			}
		})
		if flips != c.flips || worst != 3 || len(exceptions) != 0 {
			t.Errorf("%s: %d exponent flips, worst rel err %g, exceptions %#x; want %d, 3, none", c.codec, flips, worst, exceptions, c.flips)
		}
	}
}

// TestFinding5RkWorstAboveOneExhaustive restates Finding 5 (§5.4.1,
// Fig. 11) on every positive posit8 and posit16 pattern above 1: the
// flip of the terminating regime bit R_k has the largest finite
// relative error of the pattern's N flips. The one exception in each
// format is maxpos, whose regime run fills the payload, so it has no
// R_k.
func TestFinding5RkWorstAboveOneExhaustive(t *testing.T) {
	for _, c := range []struct {
		codec      string
		patterns   int
		exceptions []uint64
	}{
		{"posit8", 63, []uint64{0x7f}},
		{"posit16", 16383, []uint64{0x7fff}},
	} {
		var exceptions []uint64
		patterns := 0
		eachPositivePattern(t, c.codec, func(p positivePattern) {
			if p.v <= 1 {
				return
			}
			patterns++
			rk, ok := p.flip(ClassRegimeExpand)
			if !ok {
				exceptions = append(exceptions, p.bits)
				return
			}
			for _, f := range p.flips {
				if !math.IsInf(f.RelErr, 0) && f.RelErr > rk.RelErr {
					t.Logf("%s %#x (%g): bit %d rel err %g beats R_k (bit %d) %g", c.codec, p.bits, p.v, f.Pos, f.RelErr, rk.Pos, rk.RelErr)
					exceptions = append(exceptions, p.bits)
					return
				}
			}
		})
		if patterns != c.patterns || !slices.Equal(exceptions, c.exceptions) {
			t.Errorf("%s: %d patterns above 1, exceptions %#x; want %d, %#x", c.codec, patterns, exceptions, c.patterns, c.exceptions)
		}
	}
}

// TestFinding6RkBelowOneExhaustive restates Finding 6 (§5.4.2,
// Fig. 14) on every positive posit8 and posit16 pattern below 1: the
// R_k flip's relative error is at most 1, because it lengthens the run
// of zeros and shrinks the value. Every such pattern has an R_k (its
// run of zeros ends in a one, at bit 0 for minpos), and none is an
// exception.
func TestFinding6RkBelowOneExhaustive(t *testing.T) {
	for _, c := range []struct {
		codec    string
		patterns int
	}{
		{"posit8", 63},
		{"posit16", 16383},
	} {
		var exceptions []uint64
		patterns := 0
		eachPositivePattern(t, c.codec, func(p positivePattern) {
			if p.v >= 1 {
				return
			}
			patterns++
			if rk, ok := p.flip(ClassRegimeExpand); !ok || rk.RelErr > 1 {
				exceptions = append(exceptions, p.bits)
			}
		})
		if patterns != c.patterns || len(exceptions) != 0 {
			t.Errorf("%s: %d patterns below 1, exceptions %#x; want %d, none", c.codec, patterns, exceptions, c.patterns)
		}
	}
}

// TestFinding7SignFlipExhaustive restates Finding 7 (§5.7,
// Figs. 19–20) on every positive posit8 and posit16 pattern. A sign
// flip is an exact negation, relative error 2, only for the pattern of
// 1 (0x40, 0x4000); for every other pattern it changes the magnitude
// too. And the damage grows with the regime: separately for values at
// or above 1 and below 1, every sign-flip absolute error at regime run
// k+1 exceeds every one at run k, for every k the format has.
func TestFinding7SignFlipExhaustive(t *testing.T) {
	// span holds the extreme sign-flip absolute errors at one k and
	// the patterns that have them.
	type span struct {
		lo, hi     float64
		loAt, hiAt uint64
	}
	for _, c := range []struct {
		codec string
		one   uint64
		pairs [2]int // consecutive k pairs checked below 1 and at or above 1
	}{
		{"posit8", 0x40, [2]int{5, 6}},
		{"posit16", 0x4000, [2]int{13, 14}},
	} {
		var exact []uint64
		var spans [2]map[int]*span // [0] below 1, [1] at or above 1; by k
		spans[0], spans[1] = map[int]*span{}, map[int]*span{}
		eachPositivePattern(t, c.codec, func(p positivePattern) {
			e, ok := p.flip(ClassSign)
			if !ok {
				t.Fatalf("%s %#x: no sign flip", c.codec, p.bits)
			}
			if e.RelErr == 2 {
				exact = append(exact, p.bits)
			}
			side := 0
			if p.v >= 1 {
				side = 1
			}
			s := spans[side][p.k]
			if s == nil {
				s = &span{lo: e.AbsErr, hi: e.AbsErr, loAt: p.bits, hiAt: p.bits}
				spans[side][p.k] = s
			}
			if e.AbsErr < s.lo {
				s.lo, s.loAt = e.AbsErr, p.bits
			}
			if e.AbsErr > s.hi {
				s.hi, s.hiAt = e.AbsErr, p.bits
			}
		})
		if !slices.Equal(exact, []uint64{c.one}) {
			t.Errorf("%s: sign flips with rel err 2 at %#x; want only %#x", c.codec, exact, c.one)
		}
		for side, byK := range spans {
			name := [2]string{"below 1", "at or above 1"}[side]
			pairs := 0
			for k := 1; byK[k] != nil && byK[k+1] != nil; k++ {
				pairs++
				if s, next := byK[k], byK[k+1]; next.lo <= s.hi {
					t.Errorf("%s %s: sign flip of %#x (k=%d) has abs err %g, not above %g of %#x (k=%d)",
						c.codec, name, next.loAt, k+1, next.lo, s.hi, s.hiAt, k)
				}
			}
			if pairs != c.pairs[side] || pairs != len(byK)-1 {
				t.Errorf("%s %s: compared %d consecutive pairs of the %d regime runs; want %d", c.codec, name, pairs, len(byK), c.pairs[side])
			}
		}
	}
}

// TestFig15SoleRunBitExhaustive counts the paper's edge case (§5.4.2,
// Fig. 15) on every positive posit8 and posit16 pattern whose regime
// run is one bit long (k = 1), the patterns with a flip of
// ClassRegimeInvertExpand. That bit is the whole run, so its flip
// inverts the regime and lengthens the run at once: the value lands on
// the other side of 1, and the new run is longer for every pattern but
// 1 (0x40, 0x4000), which flips to zero. Below 1 this is the
// absolute-error spike: every such flip does more absolute damage than
// the R_k flip of any pattern below 1.
func TestFig15SoleRunBitExhaustive(t *testing.T) {
	for _, c := range []struct {
		codec      string
		perSide    int     // k = 1 patterns below 1, and at or above 1
		one        uint64  // the pattern of 1, the one exception
		loAt, hiAt uint64  // below 1: patterns with the least and most flip abs err
		lo, hi     float64 // their abs errors; hi is maxpos less the value, which rounds to 2^56 in posit16
		rkMax      float64 // largest R_k flip abs err of any pattern below 1
	}{
		{"posit8", 32, 0x40, 0x20, 0x3f, 15.9375, 0x1p24 - 0.9375, 0.8828125},
		{"posit16", 8192, 0x4000, 0x2000, 0x3fff, 15.9375, 0x1p56, 0.937286376953125},
	} {
		var exceptions []uint64
		var perSide [2]int // [0] below 1, [1] at or above 1
		lo, hi, rkMax := math.Inf(1), 0.0, 0.0
		var loAt, hiAt uint64
		eachPositivePattern(t, c.codec, func(p positivePattern) {
			if rk, _ := p.flip(ClassRegimeExpand); p.v < 1 {
				rkMax = max(rkMax, rk.AbsErr)
			}
			f, ok := p.flip(ClassRegimeInvertExpand)
			if ok != (p.k == 1) {
				t.Errorf("%s %#x: k = %d, sole-run-bit flip found %v", c.codec, p.bits, p.k, ok)
			}
			if !ok {
				return
			}
			if (p.v < 1) == (f.FaultyVal < 1) {
				t.Errorf("%s %#x (%g): flipping bit %d gives %g, on the same side of 1", c.codec, p.bits, p.v, f.Pos, f.FaultyVal)
			}
			if f.FaultyK <= p.k {
				exceptions = append(exceptions, p.bits)
			}
			if p.v >= 1 {
				perSide[1]++
				return
			}
			perSide[0]++
			if f.AbsErr < lo {
				lo, loAt = f.AbsErr, p.bits
			}
			if f.AbsErr > hi {
				hi, hiAt = f.AbsErr, p.bits
			}
		})
		if perSide != [2]int{c.perSide, c.perSide} || !slices.Equal(exceptions, []uint64{c.one}) {
			t.Errorf("%s: %v k = 1 patterns below and at or above 1, run not longer at %#x; want %d each, only %#x",
				c.codec, perSide, exceptions, c.perSide, c.one)
		}
		if lo != c.lo || loAt != c.loAt || hi != c.hi || hiAt != c.hiAt {
			t.Errorf("%s below 1: flip abs err from %g (%#x) to %g (%#x); want %g (%#x) to %g (%#x)",
				c.codec, lo, loAt, hi, hiAt, c.lo, c.loAt, c.hi, c.hiAt)
		}
		if rkMax != c.rkMax || lo <= rkMax {
			t.Errorf("%s below 1: largest R_k flip abs err %g, least sole-run-bit flip abs err %g; want %g, and above it",
				c.codec, rkMax, lo, c.rkMax)
		}
	}
}

// ieeeSmall are the two IEEE formats narrow enough to enumerate.
var ieeeSmall = []ieee754.Format{ieee754.Binary16, ieee754.BFloat16}

// TestFinding2IEEESignExactlyTwoExhaustive restates the format half of
// Finding 2 (§3.1) on every ieee16 and bfloat16 pattern: a sign flip is
// an exact negation, so its relative error is exactly 2 on every
// finite nonzero pattern, subnormals included. No pattern is an
// exception.
func TestFinding2IEEESignExactlyTwoExhaustive(t *testing.T) {
	for i, want := range []int{63486, 65278} {
		fm := ieeeSmall[i]
		codec := mustLookup(fm.Name)
		var exceptions []uint64
		patterns := 0
		for b := uint64(0); b <= fm.Mask(); b++ {
			f := Analyze(codec, b, fm.Width()-1)
			if f.FieldName != "sign" {
				t.Fatalf("%s: bit %d is %s", fm.Name, f.Pos, f.FieldName)
			}
			if fm.IsNaN(b) || fm.IsInf(b) || fm.IsZero(b) {
				continue
			}
			patterns++
			if f.RelErr != 2 {
				exceptions = append(exceptions, b)
			}
		}
		if patterns != want || len(exceptions) != 0 {
			t.Errorf("%s: %d finite nonzero patterns, sign flip rel err not 2 at %#x; want %d, none", fm.Name, patterns, exceptions, want)
		}
	}
}

// TestFinding1IEEEExponentScaleExhaustive restates the format half of
// Finding 1 (§3.1, Fig. 3) on every ieee16 and bfloat16 pattern:
// flipping exponent bit i of a normal pattern into a normal pattern
// multiplies the value by exactly 2^(2^i) when the bit was clear and
// divides it by 2^(2^i) when it was set. The flips left out are those
// from zero or a subnormal, whose value has no implicit leading one,
// and those to zero, a subnormal, Inf or NaN (class other than
// "finite"). No checked flip is an exception.
func TestFinding1IEEEExponentScaleExhaustive(t *testing.T) {
	for i, want := range []int{286720, 516096} {
		fm := ieeeSmall[i]
		codec := mustLookup(fm.Name)
		var exceptions []uint64
		flips := 0
		for b := uint64(0); b <= fm.Mask(); b++ {
			if fm.IsNaN(b) || fm.IsInf(b) || fm.IsZero(b) || fm.IsSubnormal(b) {
				continue
			}
			for e := 0; e < fm.ExpBits; e++ {
				f := Analyze(codec, b, fm.FracBits+e)
				if f.FieldName != "exponent" {
					t.Fatalf("%s: bit %d is %s", fm.Name, f.Pos, f.FieldName)
				}
				if f.Class != Class(ieee754.OutcomeFinite.String()) {
					continue
				}
				flips++
				scale := 1 << uint(e)
				if b>>uint(f.Pos)&1 == 1 {
					scale = -scale
				}
				if f.FaultyVal != math.Ldexp(f.ReprValue, scale) {
					exceptions = append(exceptions, b)
				}
			}
		}
		if flips != want || len(exceptions) != 0 {
			t.Errorf("%s: %d normal-to-normal exponent flips, not scaled by 2^±2^i at %#x; want %d, none", fm.Name, flips, exceptions, want)
		}
	}
}

// TestFinding4FractionDoublingExhaustive restates the format half of
// Finding 4 (§5.5, Fig. 16) pattern by pattern: within one pattern's
// fraction field, each bit's flip has exactly twice the absolute error
// of the bit below it. It holds for every finite ieee16 and bfloat16
// pattern, subnormals and zeros included, and for every posit8 and
// posit16 pattern but zero and NaR (whose payload is all regime),
// negative ones included; a posit's fraction field moves with the
// regime. No adjacent pair is an exception.
func TestFinding4FractionDoublingExhaustive(t *testing.T) {
	for _, c := range []struct {
		codec string
		pairs int
	}{
		{"ieee16", 571392},
		{"bfloat16", 391680},
		{"posit8", 320},
		{"posit16", 589888},
	} {
		codec := mustLookup(c.codec)
		var exceptions []uint64
		pairs := 0
		for b := uint64(0); b < 1<<uint(codec.Width()); b++ {
			if codec.IsSpecial(b) {
				continue
			}
			flips := Sweep(codec, b)
			for bit := 1; bit < len(flips); bit++ {
				f, below := flips[bit], flips[bit-1]
				if f.FieldName != "fraction" || below.FieldName != "fraction" {
					continue
				}
				pairs++
				if f.AbsErr != 2*below.AbsErr {
					exceptions = append(exceptions, b)
				}
			}
		}
		if pairs != c.pairs || len(exceptions) != 0 {
			t.Errorf("%s: %d adjacent fraction-bit pairs, abs err not doubled at %#x; want %d, none", c.codec, pairs, exceptions, c.pairs)
		}
	}
}

// TestFinding8SpecialOutcomesExhaustive restates the format half of
// Finding 8 (§5.3) over every flip of every pattern: from a real
// pattern only n posit flips reach NaR — the sign flip of zero and
// the flip of the one set payload bit of each pattern next to NaR —
// while thousands of IEEE flips from a finite pattern reach Inf or NaN:
// those that fill the exponent field with ones.
func TestFinding8SpecialOutcomesExhaustive(t *testing.T) {
	for _, c := range []struct {
		codec   string
		special int
	}{
		{"posit8", 8},
		{"posit16", 16},
		{"ieee16", 10240},
		{"bfloat16", 2048},
	} {
		codec := mustLookup(c.codec)
		special := 0
		for b := uint64(0); b < 1<<uint(codec.Width()); b++ {
			if codec.IsSpecial(b) {
				continue
			}
			for _, f := range Sweep(codec, b) {
				if codec.IsSpecial(f.FaultyBits) {
					special++
				}
			}
		}
		if special != c.special {
			t.Errorf("%s: %d flips from a real or finite pattern reach NaR, Inf or NaN; want %d", c.codec, special, c.special)
		}
	}
}
