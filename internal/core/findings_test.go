package core

// findings_test verifies that the paper's experimental findings (§5)
// emerge from this reproduction at reduced trial counts — the
// shape-level checks DESIGN.md §4 commits to.

import (
	"context"
	"math"
	"slices"
	"testing"

	"positres/internal/qcat"
)

// runPair runs a small campaign on a field with both formats.
func runPair(t *testing.T, fieldKey string, n int) (positR, ieeeR *Result) {
	t.Helper()
	data := testData(t, fieldKey, n)
	cfg := DefaultConfig()
	cfg.TrialsPerBit = 80
	var err error
	positR, err = Run(context.Background(), cfg, mustCodec(t, "posit32"), fieldKey, data)
	if err != nil {
		t.Fatal(err)
	}
	ieeeR, err = Run(context.Background(), cfg, mustCodec(t, "ieee32"), fieldKey, data)
	if err != nil {
		t.Fatal(err)
	}
	return positR, ieeeR
}

// maxFinite returns the largest finite mean relative error over a bit
// range.
func maxMeanRel(aggs []BitAgg, lo, hi int) float64 {
	out := math.Inf(-1)
	for _, a := range aggs {
		if a.Bit >= lo && a.Bit <= hi && !math.IsNaN(a.MeanRelErr) && !math.IsInf(a.MeanRelErr, 0) {
			if a.MeanRelErr > out {
				out = a.MeanRelErr
			}
		}
	}
	return out
}

// TestFinding1IEEEExponentialSpike: IEEE-754 mean relative error grows
// catastrophically toward the upper exponent bits (≥ 1e30 at the top),
// while posits stay many orders of magnitude lower in the same
// positions (paper §5.3, Fig. 10).
func TestFinding1IEEEExponentialSpike(t *testing.T) {
	for _, field := range []string{"Nyx/temperature", "CESM/RELHUM"} {
		pR, iR := runPair(t, field, 30000)
		pAgg, iAgg := AggregateByBit(pR.Trials), AggregateByBit(iR.Trials)
		// Upper exponent bits of IEEE (28..30): astronomically large.
		// (For data with every |v| > 2 the top exponent bit is set and
		// its flip divides, so the worst finite spike comes from bit
		// 29's ×2^64 — still ≥ 1e15.)
		ieeeTop := maxMeanRel(iAgg, 28, 30)
		if ieeeTop < 1e15 {
			t.Errorf("%s: IEEE upper-exponent error %g, expected >= 1e15", field, ieeeTop)
		}
		positTop := maxMeanRel(pAgg, 24, 30)
		if positTop > ieeeTop/1e8 {
			t.Errorf("%s: posit upper-bit error %g not ≪ IEEE %g", field, positTop, ieeeTop)
		}
	}
}

// TestFinding2IEEESignExactlyTwo: IEEE sign-bit flips give relative
// error exactly 2 in every trial (§3.1).
func TestFinding2IEEESignExactlyTwo(t *testing.T) {
	_, iR := runPair(t, "HACC/vx", 20000)
	for _, tr := range iR.Trials {
		if tr.Bit == 31 && !tr.Catastrophic && tr.OrigValue == tr.ReprValue {
			if tr.RelErr != 2 {
				t.Fatalf("IEEE sign flip rel err %v, want exactly 2 (%+v)", tr.RelErr, tr)
			}
		}
	}
}

// TestFinding3PositExponentNoSpike: the posit exponent field causes no
// error spike — a flip shifts magnitude by at most ×4 (§5.6,
// Figs. 17–18), so every exponent-bit relative error is ≤ 3.
func TestFinding3PositExponentNoSpike(t *testing.T) {
	pR, _ := runPair(t, "Hurricane/Vf30", 20000)
	for _, tr := range pR.Trials {
		if tr.FieldName != "exponent" || tr.Catastrophic {
			continue
		}
		// |faulty| ∈ [|v|/4, 4|v|] ⇒ rel err ≤ 3 (when conversion error
		// is negligible, which holds for these moderate magnitudes).
		if tr.RelErr > 3.0001 {
			t.Fatalf("posit exponent flip rel err %v > 3: %+v", tr.RelErr, tr)
		}
	}
}

// TestFinding4FractionDoubling: in both formats, mean relative error
// of fraction bits roughly doubles per position toward the MSB (§5.5,
// Fig. 16). Verified as: error at the fraction's top bits exceeds the
// error at its bottom bits by at least 2^10 over ≥ 15 positions.
func TestFinding4FractionDoubling(t *testing.T) {
	pR, iR := runPair(t, "CESM/RELHUM", 20000)
	for name, r := range map[string]*Result{"posit32": pR, "ieee32": iR} {
		aggs := AggregateByBit(r.Trials)
		lo := maxMeanRel(aggs, 0, 2)
		hi := maxMeanRel(aggs, 18, 20) // still fraction for RELHUM-scale values
		if !(hi > lo*1e3) {
			t.Errorf("%s: fraction error did not grow toward MSB: %g -> %g", name, lo, hi)
		}
	}
}

// TestFinding5RkSpikeAboveOne: for posits with |v| > 1, the
// terminating regime bit R_k carries the largest error of the regime
// field (§5.4.1, Fig. 11): within a regime-size bucket, the error at
// the R_k position dwarfs the error at the fraction's top.
func TestFinding5RkSpikeAboveOne(t *testing.T) {
	pR, _ := runPair(t, "Nyx/temperature", 30000)
	above := MagnitudeAbove(pR.Trials)
	curves := RegimeCurve(above)
	checked := 0
	for k, aggs := range curves {
		if k < 2 || k > 6 {
			continue
		}
		// For a positive posit with regime run k, R_k sits at bit
		// position 31 - 1 - k = 30 - k.
		rkBit := 30 - k
		var rkErr, fracErr float64
		for _, a := range aggs {
			if a.Bit == rkBit && a.Trials >= 5 {
				rkErr = a.MeanRelErr
			}
			if a.Bit == rkBit-4 && a.Trials >= 5 { // a bit inside exponent/fraction
				fracErr = a.MeanRelErr
			}
		}
		if rkErr == 0 || fracErr == 0 || math.IsNaN(rkErr) || math.IsNaN(fracErr) {
			continue
		}
		checked++
		if rkErr < 10*fracErr {
			t.Errorf("k=%d: R_k error %g not ≫ interior error %g", k, rkErr, fracErr)
		}
	}
	if checked == 0 {
		t.Skip("no regime bucket had enough trials; increase sample")
	}
}

// TestFinding6BelowOneRelErrNearOne: for posits with |v| < 1, flipping
// R_k gives relative error ≈ 1 (the faulty value collapses toward
// zero; §5.4.2, Fig. 14) — never the astronomical spikes of IEEE.
func TestFinding6BelowOneRelErrNearOne(t *testing.T) {
	pR, _ := runPair(t, "CESM/CLOUD", 30000)
	below := MagnitudeBelow(pR.Trials)
	for _, tr := range below {
		if tr.Catastrophic {
			continue
		}
		// R_k of a positive below-one posit with run k sits at 30-k.
		if tr.Bit == 30-tr.RegimeK && tr.FieldName == "regime" {
			if tr.RelErr > 1.01 {
				t.Fatalf("below-one R_k flip rel err %v > 1: %+v", tr.RelErr, tr)
			}
		}
	}
}

// positivePattern is one positive pattern of a posit codec with the
// flip of each of its bits.
type positivePattern struct {
	bits  uint64
	v     float64         // the decoded pattern
	k     int             // regime run length
	rk    int             // position of R_k; -1 when the run fills the payload and there is no R_k
	flips []Flip          // flips[bit]
	errs  []qcat.PointErr // errs[bit]: flips[bit] measured against v
}

// eachPositivePattern runs visit over every positive pattern of a
// posit codec, through Deriver.FromPattern. rk is N-2-k for the fused
// RegimeK, and the test fails unless FieldName agrees: R_k is the
// lowest bit of the regime field. The slices in p are reused for the
// next pattern.
func eachPositivePattern(t *testing.T, name string, visit func(p positivePattern)) {
	t.Helper()
	codec := mustCodec(t, name)
	d := NewDeriver(codec)
	n := codec.Width()
	p := positivePattern{flips: make([]Flip, n), errs: make([]qcat.PointErr, n)}
	for p.bits = 1; p.bits < 1<<uint(n-1); p.bits++ {
		lowest := n // lowest regime bit
		for bit := range p.flips {
			f := d.FromPattern(p.bits, bit)
			p.flips[bit], p.errs[bit] = f, qcat.Point(f.ReprValue, f.FaultyVal)
			if f.FieldName == "regime" && bit < lowest {
				lowest = bit
			}
		}
		p.v, p.k = p.flips[0].ReprValue, p.flips[0].RegimeK
		p.rk = n - 2 - p.k
		if p.k == n-1 {
			p.rk = -1 // a run of N-1 identical bits has no terminating bit
		} else if lowest != p.rk {
			t.Fatalf("%s %#x: RegimeK %d puts R_k at bit %d, the regime field ends at bit %d", name, p.bits, p.k, p.rk, lowest)
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
			for bit, f := range p.flips {
				if f.FieldName != "exponent" {
					continue
				}
				flips++
				e := p.errs[bit].RelErr
				worst = max(worst, e)
				if e > 3 {
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
			if p.rk < 0 {
				exceptions = append(exceptions, p.bits)
				return
			}
			rk := p.errs[p.rk].RelErr
			for bit, e := range p.errs {
				if !math.IsInf(e.RelErr, 0) && e.RelErr > rk {
					t.Logf("%s %#x (%g): bit %d rel err %g beats R_k (bit %d) %g", c.codec, p.bits, p.v, bit, e.RelErr, p.rk, rk)
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
			if p.rk < 0 || p.errs[p.rk].RelErr > 1 {
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
			e := p.errs[len(p.errs)-1] // the sign bit
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

// TestFinding7PositSignMagnitudeCoupling: flipping a posit's sign bit
// changes the magnitude too (§5.7, Fig. 19): relative error differs
// from 2 for values away from ±1, and grows with regime size (Fig. 20).
func TestFinding7PositSignMagnitudeCoupling(t *testing.T) {
	pR, _ := runPair(t, "Nyx/temperature", 30000)
	boxes := SignBoxes(pR.Trials, 32)
	if len(boxes) < 2 {
		t.Skip("not enough regime buckets")
	}
	// Median absolute sign-flip error must increase with k.
	for i := 1; i < len(boxes); i++ {
		if !(boxes[i].Box.Median > boxes[i-1].Box.Median) {
			t.Errorf("sign-flip error not increasing: k=%d median %g vs k=%d median %g",
				boxes[i].K, boxes[i].Box.Median, boxes[i-1].K, boxes[i-1].Box.Median)
		}
	}
	// And individual sign flips away from magnitude 1 deviate from the
	// IEEE behaviour of exactly 2.
	deviating := 0
	for _, tr := range pR.Trials {
		if tr.Bit == 31 && !tr.Catastrophic && math.Abs(tr.ReprValue) > 4 {
			if math.Abs(tr.RelErr-2) > 0.1 {
				deviating++
			}
		}
	}
	if deviating == 0 {
		t.Error("posit sign flips behaved like IEEE (always rel err 2)")
	}
}

// TestFinding8CatastrophesRarerInPosits: across a mixed-magnitude
// field, IEEE produces NaN/Inf outcomes (exponent 0xFF patterns) while
// posits can only produce NaR from the sign bit of zero... in practice
// posit catastrophic counts stay at or below IEEE's (§5.3: "the regime
// reduces the number of bits that cause catastrophic error").
func TestFinding8CatastrophesRarerInPosits(t *testing.T) {
	pR, iR := runPair(t, "HACC/vz", 30000)
	count := func(trials []Trial) int {
		n := 0
		for _, tr := range trials {
			if tr.Catastrophic {
				n++
			}
		}
		return n
	}
	p, i := count(pR.Trials), count(iR.Trials)
	if p > i {
		t.Errorf("posit catastrophic flips (%d) exceed IEEE's (%d)", p, i)
	}
}
