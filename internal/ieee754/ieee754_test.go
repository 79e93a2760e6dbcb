package ieee754

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"positres/internal/qcat"
)

func TestFormatGeometry(t *testing.T) {
	cases := []struct {
		f          Format
		width      int
		bias       int
		emin, emax int
	}{
		{Binary16, 16, 15, -14, 15},
		{BFloat16, 16, 127, -126, 127},
		{Binary32, 32, 127, -126, 127},
		{Binary64, 64, 1023, -1022, 1023},
	}
	for _, c := range cases {
		if c.f.Width() != c.width || c.f.Bias() != c.bias || c.f.EMin() != c.emin || c.f.EMax() != c.emax {
			t.Errorf("%s geometry: width %d bias %d emin %d emax %d",
				c.f.Name, c.f.Width(), c.f.Bias(), c.f.EMin(), c.f.EMax())
		}
	}
}

func TestFieldAtStatic(t *testing.T) {
	f := Binary32
	if f.FieldAt(31) != FieldSign {
		t.Error("bit 31 should be sign")
	}
	for p := 23; p <= 30; p++ {
		if f.FieldAt(p) != FieldExponent {
			t.Errorf("bit %d should be exponent", p)
		}
	}
	for p := 0; p <= 22; p++ {
		if f.FieldAt(p) != FieldFraction {
			t.Errorf("bit %d should be fraction", p)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("FieldAt out of range should panic")
		}
	}()
	f.FieldAt(32)
}

// TestBinary32MatchesNative: the generic codec must agree bit-for-bit
// with Go's native float32 conversion (which implements IEEE
// round-to-nearest-even).
func TestBinary32MatchesNative(t *testing.T) {
	check := func(x float64) bool {
		want := uint64(math.Float32bits(float32(x)))
		got := Binary32.Encode(x)
		if math.IsNaN(x) {
			return Binary32.IsNaN(got)
		}
		return got == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100000}); err != nil {
		t.Error(err)
	}
	// Directed edge cases: overflow, underflow, subnormal boundaries.
	edges := []float64{
		0, math.Copysign(0, -1), 1, -1, 186.25,
		math.MaxFloat32, math.MaxFloat32 * 2, 1e300, -1e300,
		math.SmallestNonzeroFloat32, math.SmallestNonzeroFloat32 / 2,
		math.SmallestNonzeroFloat32 / 4096, 1e-300,
		math.Ldexp(1, -126), math.Ldexp(1, -127), math.Ldexp(1, -149), math.Ldexp(1, -150),
		math.Ldexp(1.9999999, -127), math.Ldexp(1, 127), math.Inf(1), math.Inf(-1),
	}
	for _, x := range edges {
		want := uint64(math.Float32bits(float32(x)))
		if got := Binary32.Encode(x); got != want {
			t.Errorf("Encode(%g) = %#08x, native %#08x", x, got, want)
		}
	}
}

// TestBinary32DecodeMatchesNative: decoding any pattern equals the
// native float32-to-float64 widening.
func TestBinary32DecodeMatchesNative(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200000; i++ {
		b := uint64(rng.Uint32())
		got := Binary32.Decode(b)
		want := float64(math.Float32frombits(uint32(b)))
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("Decode(%#08x) = %v, native %v", b, got, want)
		}
	}
}

// TestBinary64Identity: the binary64 codec is the identity on bits.
func TestBinary64Identity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10000; i++ {
		b := rng.Uint64()
		x := Binary64.Decode(b)
		if !math.IsNaN(x) && Binary64.Encode(x) != b {
			t.Fatalf("binary64 round trip broke at %#x", b)
		}
	}
}

// TestExhaustiveBinary16RoundTrip: every binary16 pattern decodes and
// re-encodes to itself (except NaN payloads, which canonicalize).
func TestExhaustiveBinary16RoundTrip(t *testing.T) {
	for _, f := range []Format{Binary16, BFloat16} {
		for b := uint64(0); b <= f.Mask(); b++ {
			x := f.Decode(b)
			if math.IsNaN(x) {
				if !f.IsNaN(b) {
					t.Fatalf("%s: decode(%#x) NaN but pattern not NaN", f.Name, b)
				}
				continue
			}
			rt := f.Encode(x)
			if rt != b {
				t.Fatalf("%s: round trip of %#x (=%v) gave %#x", f.Name, b, x, rt)
			}
		}
	}
}

// TestBinary16Monotonic: decoded values are monotone in the
// sign-magnitude pattern order for finite patterns.
func TestBinary16Monotonic(t *testing.T) {
	f := Binary16
	prev := math.Inf(-1)
	// Positive ray: 0x0000..0x7C00 ascends.
	for b := uint64(0); b <= f.Inf(1); b++ {
		v := f.Decode(b)
		if !(v > prev) && b != 0 {
			t.Fatalf("not monotone at %#x: %v vs %v", b, v, prev)
		}
		prev = v
	}
}

func TestSpecialClassifiers(t *testing.T) {
	f := Binary32
	if !f.IsInf(f.Inf(1)) || !f.IsInf(f.Inf(-1)) || f.IsNaN(f.Inf(1)) {
		t.Error("Inf classification")
	}
	if !f.IsNaN(f.NaN()) || f.IsInf(f.NaN()) {
		t.Error("NaN classification")
	}
	if !f.IsZero(0) || !f.IsZero(f.SignMask()) || f.IsZero(1) {
		t.Error("zero classification")
	}
	if !f.IsSubnormal(1) || f.IsSubnormal(0) || f.IsSubnormal(f.Encode(1)) {
		t.Error("subnormal classification")
	}
	if f.Decode(f.MaxFinite()) != float64(math.MaxFloat32) {
		t.Errorf("MaxFinite = %g, want MaxFloat32", f.Decode(f.MaxFinite()))
	}
	if got := f.Decode(f.Inf(-1)); !math.IsInf(got, -1) {
		t.Errorf("Decode(-Inf pattern) = %v", got)
	}
}

// measuredRelErr is the relative error of flipping bit pos of b, as a
// campaign measures it: qcat.Point of the two decoded patterns.
func measuredRelErr(f Format, b uint64, pos int) float64 {
	return qcat.Point(f.Decode(b), f.Decode((b^uint64(1)<<uint(pos))&f.Mask())).RelErr
}

// TestTheoreticalMatchesMeasured: the closed-form model must agree
// with brute-force flip-and-decode wherever it claims to apply — on
// every (pattern, bit) pair of binary16 and bfloat16, and on sampled
// binary32 pairs.
func TestTheoreticalMatchesMeasured(t *testing.T) {
	check := func(f Format, b uint64, pos int) {
		pred := f.TheoreticalRelError(b, pos)
		if math.IsNaN(pred) {
			return // model declared itself out of scope
		}
		meas := measuredRelErr(f, b, pos)
		if math.IsInf(meas, 1) {
			t.Fatalf("%s: model applied at %#x pos %d but flip was catastrophic", f.Name, b, pos)
		}
		if diff := math.Abs(pred-meas) / math.Max(meas, 1e-300); diff > 1e-9 && math.Abs(pred-meas) > 1e-12 {
			t.Fatalf("%s: pattern %#x pos %d: predicted %g measured %g", f.Name, b, pos, pred, meas)
		}
	}
	for _, f := range []Format{Binary16, BFloat16} {
		for b := uint64(0); b <= f.Mask(); b++ {
			for pos := 0; pos < f.Width(); pos++ {
				check(f, b, pos)
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	f := Binary32
	for i := 0; i < 20000; i++ {
		check(f, rng.Uint64()&f.Mask(), rng.Intn(f.Width()))
	}
}

// TestSignFlipRelErrorExactlyTwo reproduces the paper's §3.1 claim:
// err_abs = |orig − (−orig)| = 2|orig| for IEEE floats.
func TestSignFlipRelErrorExactlyTwo(t *testing.T) {
	f := Binary32
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 10000; i++ {
		b := rng.Uint64() & f.Mask()
		fd := f.DecodeFields(b)
		if fd.Exp == 0 || fd.Exp == 255 {
			continue
		}
		if got := measuredRelErr(f, b, 31); got != 2 {
			t.Fatalf("sign flip rel error of %#x = %v, want exactly 2", b, got)
		}
	}
}

// TestExponentFlipPowersOfTwo: flipping exponent bit i scales by
// exactly 2^(2^i) — the source of the IEEE error spike (paper Fig. 3).
func TestExponentFlipPowersOfTwo(t *testing.T) {
	f := Binary32
	b := f.Encode(186.25)
	for i := 0; i < f.ExpBits; i++ {
		pos := f.FracBits + i
		nb := b ^ uint64(1)<<uint(pos)
		orig, faulty := f.Decode(b), f.Decode(nb)
		if math.IsInf(faulty, 0) || math.IsNaN(faulty) {
			continue
		}
		ratio := faulty / orig
		want := math.Exp2(float64(int(1) << uint(i)))
		if ratio < 1 {
			ratio = 1 / ratio
		}
		if math.Abs(ratio-want)/want > 1e-12 {
			t.Errorf("exp bit %d: scale %g, want %g", i, ratio, want)
		}
	}
	// 186.25 has exponent field 0x86, whose top bit is 1: flipping bit
	// 30 divides by 2^128, the catastrophic shift of paper Fig. 3.
	top := f.FracBits + 7
	faulty := f.Decode(b ^ uint64(1)<<uint(top))
	if faulty != 186.25*math.Exp2(-128) {
		t.Errorf("top exponent flip of 186.25 = %g, want 186.25×2^-128", faulty)
	}
}

func TestClassifyFlip(t *testing.T) {
	f := Binary32
	one := f.Encode(1) // 0x3F800000
	cases := []struct {
		pos  int
		want FlipOutcome
	}{
		{31, OutcomeFinite}, // sign: -1
		{22, OutcomeFinite}, // fraction
	}
	for _, c := range cases {
		if got := f.ClassifyFlip(one, c.pos); got != c.want {
			t.Errorf("ClassifyFlip(1.0, %d) = %v, want %v", c.pos, got, c.want)
		}
	}
	// Flipping the top exponent bit of +Inf-adjacent patterns:
	inf := f.Inf(1)
	if got := f.ClassifyFlip(inf, 23); got != OutcomeFinite {
		t.Errorf("flip low exp bit of Inf: %v", got)
	}
	// exp=0xFE has a 0 in its lowest bit: flipping bit 23 gives 0xFF,
	// which is NaN or Inf depending on the fraction.
	b := f.Encode(math.MaxFloat32) // exp 0xFE, frac all ones
	if got := f.ClassifyFlip(b, 23); got != OutcomeNaN {
		t.Errorf("MaxFloat32 exp-LSB flip should be NaN, got %v", got)
	}
	b = f.Encode(math.Ldexp(1, 127)) // exp 0xFE, frac 0
	if got := f.ClassifyFlip(b, 23); got != OutcomeInf {
		t.Errorf("2^127 exp-LSB flip should be Inf, got %v", got)
	}
	// A small normal with nonzero fraction: flipping exp bit 23 takes
	// exp 1 → 0, producing a subnormal.
	b = f.Encode(math.Ldexp(1.5, -126))
	if got := f.ClassifyFlip(b, 23); got != OutcomeSubnormal {
		t.Errorf("small-normal exp flip should be subnormal, got %v", got)
	}
	// The smallest normal (fraction 0) drops to exactly zero instead.
	b = f.Encode(math.Ldexp(1, -126))
	if got := f.ClassifyFlip(b, 23); got != OutcomeZero {
		t.Errorf("smallest-normal exp flip should be zero, got %v", got)
	}
	// minpos subnormal, flip its only set bit → zero.
	if got := f.ClassifyFlip(1, 0); got != OutcomeZero {
		t.Errorf("subnormal LSB flip should be zero, got %v", got)
	}
	if OutcomeFinite.String() != "finite" || OutcomeNaN.String() != "nan" ||
		OutcomeInf.String() != "inf" || OutcomeZero.String() != "zero" ||
		OutcomeSubnormal.String() != "subnormal" || FlipOutcome(99).String() != "unknown" {
		t.Error("FlipOutcome strings")
	}
}

func TestFieldKindString(t *testing.T) {
	if FieldSign.String() != "sign" || FieldExponent.String() != "exponent" || FieldFraction.String() != "fraction" {
		t.Error("FieldKind strings")
	}
}

// TestEncodeHalfwaySubnormal: directed rounding checks at the
// subnormal/zero boundary for binary16.
func TestEncodeHalfwaySubnormal(t *testing.T) {
	f := Binary16
	ulp := math.Ldexp(1, -24) // smallest binary16 subnormal
	cases := []struct {
		x    float64
		want uint64
	}{
		{ulp, 1},
		{ulp / 2, 0},     // tie with zero: even → 0
		{ulp * 3 / 4, 1}, // above tie → rounds to ulp
		{ulp / 4, 0},     // below tie → 0
		{ulp * 3 / 2, 2}, // tie between 1 and 2 → even (2)
		{ulp * 1.25, 1},  // closer to 1
		{-ulp, f.SignMask() | 1},
	}
	for _, c := range cases {
		if got := f.Encode(c.x); got != c.want {
			t.Errorf("Encode(%g) = %#x, want %#x", c.x, got, c.want)
		}
	}
}

// TestMeasuredRelErrorEdges pins how a campaign measures the edge
// cases of an IEEE flip (qcat.Point over the decoded patterns).
func TestMeasuredRelErrorEdges(t *testing.T) {
	f := Binary32
	// Zero original, zero faulty (flip the sign of +0): zero error.
	if got := measuredRelErr(f, 0, 31); got != 0 {
		t.Errorf("0 -> -0: %v", got)
	}
	// Zero original, nonzero faulty: infinite.
	if !math.IsInf(measuredRelErr(f, 0, 3), 1) {
		t.Error("0 -> subnormal should be Inf")
	}
	// Faulty NaN: infinite.
	if !math.IsInf(measuredRelErr(f, f.Encode(math.MaxFloat32), 23), 1) {
		t.Error("NaN outcome should be Inf")
	}
}

func TestMaskWide(t *testing.T) {
	if Binary64.Mask() != ^uint64(0) {
		t.Error("binary64 mask")
	}
	if Binary16.Mask() != 0xFFFF {
		t.Error("binary16 mask")
	}
	if FieldKind(9).String() == "" {
		t.Error("unknown field kind string")
	}
}
