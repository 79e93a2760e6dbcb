package posit

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// golden32 holds hand-verified posit32 encodings.
var golden32 = []struct {
	bits uint32
	val  float64
}{
	{0x00000000, 0},
	{0x40000000, 1},
	{0xC0000000, -1},
	{0x44000000, 1.5},
	{0xBC000000, -1.5},
	{0x38000000, 0.5},
	{0x48000000, 2},
	{0x4C000000, 3},
	{0x50000000, 4},
	{0x58000000, 8},
	{0x60000000, 16},
	{0x70000000, 256},
	{0x7FFFFFFF, math.Ldexp(1, 120)},  // maxpos = 2^120
	{0x00000001, math.Ldexp(1, -120)}, // minpos = 2^-120
	{0xFFFFFFFF, -math.Ldexp(1, -120)},
	{0x80000001, -math.Ldexp(1, 120)},
	{0x20000000, 0.0625}, // useed^-1 = 1/16
	{0x74000000, 1024},
	{0x30000000, 0.25},
	{0x34000000, 0.375},
}

func TestGoldenPosit32(t *testing.T) {
	for _, g := range golden32 {
		if got := DecodeFloat64(Std32, uint64(g.bits)); got != g.val {
			t.Errorf("decode(%#08x) = %v, want %v", g.bits, got, g.val)
		}
		if got := EncodeFloat64(Std32, g.val); got != uint64(g.bits) {
			t.Errorf("encode(%v) = %#08x, want %#08x", g.val, got, g.bits)
		}
	}
}

func TestSpecialValues(t *testing.T) {
	for _, cfg := range []Config{Std8, Std16, Std32, Std64} {
		if EncodeFloat64(cfg, math.NaN()) != cfg.NaR() {
			t.Errorf("%v: NaN should encode to NaR", cfg)
		}
		if EncodeFloat64(cfg, math.Inf(1)) != cfg.NaR() {
			t.Errorf("%v: +Inf should encode to NaR", cfg)
		}
		if EncodeFloat64(cfg, math.Inf(-1)) != cfg.NaR() {
			t.Errorf("%v: -Inf should encode to NaR", cfg)
		}
		if !math.IsNaN(DecodeFloat64(cfg, cfg.NaR())) {
			t.Errorf("%v: NaR should decode to NaN", cfg)
		}
		if EncodeFloat64(cfg, 0) != 0 {
			t.Errorf("%v: 0 should encode to 0", cfg)
		}
		if EncodeFloat64(cfg, math.Copysign(0, -1)) != 0 {
			t.Errorf("%v: -0 should encode to 0", cfg)
		}
		if DecodeFloat64(cfg, 0) != 0 {
			t.Errorf("%v: 0 pattern should decode to 0", cfg)
		}
	}
}

func TestSaturation(t *testing.T) {
	for _, cfg := range []Config{Std8, Std16, Std32, Std64} {
		big := math.Ldexp(1, cfg.MaxScale()+40)
		if got := EncodeFloat64(cfg, big); got != cfg.MaxPosBits() {
			t.Errorf("%v: overlarge value should saturate to maxpos, got %#x", cfg, got)
		}
		if got := EncodeFloat64(cfg, -big); got != cfg.Negate(cfg.MaxPosBits()) {
			t.Errorf("%v: overlarge negative should saturate to -maxpos", cfg)
		}
		tiny := math.Ldexp(1, -cfg.MaxScale()-40)
		if tiny == 0 {
			tiny = math.SmallestNonzeroFloat64
		}
		if got := EncodeFloat64(cfg, tiny); got != cfg.MinPosBits() {
			t.Errorf("%v: tiny value should saturate to minpos, got %#x", cfg, got)
		}
		if got := EncodeFloat64(cfg, -tiny); got != cfg.Negate(cfg.MinPosBits()) {
			t.Errorf("%v: tiny negative should saturate to -minpos", cfg)
		}
	}
}

func TestSubnormalFloat64Input(t *testing.T) {
	// Subnormal float64 values must normalize correctly before
	// saturating at minpos (every subnormal is below 2^-120).
	inputs := []float64{
		math.SmallestNonzeroFloat64,
		math.Ldexp(1, -1074),
		math.Ldexp(3, -1073),
		math.Ldexp(1, -1023),
	}
	for _, x := range inputs {
		if got := EncodeFloat64(Std32, x); got != Std32.MinPosBits() {
			t.Errorf("encode(%g) = %#x, want minpos", x, got)
		}
	}
	// posit64 reaches 2^-248, still above all float64 subnormals.
	if got := EncodeFloat64(Std64, math.SmallestNonzeroFloat64); got != Std64.MinPosBits() {
		t.Errorf("p64 encode(min subnormal) = %#x, want minpos", got)
	}
}

// TestExhaustiveDecode8and16 cross-checks the primary decoder against
// the paper's eq. (2) decoder on every 8- and 16-bit pattern, and
// verifies the encode/decode round trip is the identity.
func TestExhaustiveDecode8and16(t *testing.T) {
	for _, cfg := range []Config{Std8, Std16} {
		for b := uint64(0); b <= cfg.Mask(); b++ {
			if b == cfg.NaR() {
				if !math.IsNaN(DecodeEq2(cfg, b)) {
					t.Fatalf("%v: eq2(NaR) should be NaN", cfg)
				}
				continue
			}
			v1 := DecodeFloat64(cfg, b)
			v2 := DecodeEq2(cfg, b)
			if v1 != v2 {
				t.Fatalf("%v: pattern %#x: classic decode %v != eq2 decode %v (fields %+v)",
					cfg, b, v1, v2, DecodeFields(cfg, b))
			}
			if rt := EncodeFloat64(cfg, v1); rt != b {
				t.Fatalf("%v: round trip of %#x (=%v) gave %#x", cfg, b, v1, rt)
			}
		}
	}
}

// TestEq2MatchesClassic32and64 samples random 32- and 64-bit patterns.
func TestEq2MatchesClassic32and64(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive check skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(7))
	for _, cfg := range []Config{Std32, Std64} {
		for i := 0; i < 200000; i++ {
			b := cfg.Canon(rng.Uint64())
			if b == cfg.NaR() {
				continue
			}
			v1 := DecodeFloat64(cfg, b)
			v2 := DecodeEq2(cfg, b)
			if v1 != v2 {
				t.Fatalf("%v: pattern %#x: classic %v != eq2 %v", cfg, b, v1, v2)
			}
		}
	}
}

// TestMonotonicity verifies the hallmark posit property: bit patterns
// interpreted as signed integers order exactly as their values.
// Exhaustive for posit16 (adjacent pairs cover the whole order).
func TestMonotonicity(t *testing.T) {
	cfg := Std16
	prev := math.Inf(-1) // NaR (0x8000) sorts first as signed int -32768
	for i := 0; i <= int(cfg.Mask()); i++ {
		b := uint64(uint16(int16(-32768) + int16(i)))
		if b == cfg.NaR() {
			continue
		}
		v := DecodeFloat64(cfg, b)
		if !(v > prev) {
			t.Fatalf("monotonicity broken at pattern %#x: %v !> %v", b, v, prev)
		}
		prev = v
	}
}

// TestNegationIsTwosComplement: decode(-p) == -decode(p), exhaustive
// for posit16.
func TestNegationIsTwosComplement(t *testing.T) {
	cfg := Std16
	for b := uint64(0); b <= cfg.Mask(); b++ {
		if b == cfg.NaR() {
			if cfg.Negate(b) != b {
				t.Fatal("NaR must be its own negation")
			}
			continue
		}
		v := DecodeFloat64(cfg, b)
		nv := DecodeFloat64(cfg, cfg.Negate(b))
		if nv != -v && !(v == 0 && nv == 0) {
			t.Fatalf("negate(%#x): got %v, want %v", b, nv, -v)
		}
	}
}

// TestRoundTripQuick: encoding any finite float64 and decoding gives a
// posit-representable value that re-encodes to the same pattern.
func TestRoundTripQuick(t *testing.T) {
	for _, cfg := range []Config{Std8, Std16, Std32, Std64} {
		cfg := cfg
		f := func(x float64) bool {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			b := EncodeFloat64(cfg, x)
			v := DecodeFloat64(cfg, b)
			return EncodeFloat64(cfg, v) == b
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
			t.Errorf("%v: %v", cfg, err)
		}
	}
}

// TestEncodeIsNearest verifies rounding correctness exhaustively for
// posit8 against the reference rational rounder, sweeping a dense grid
// of float64 values across and beyond the posit8 range.
func TestEncodeIsNearest(t *testing.T) {
	t.Parallel()
	cfg := Std8
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200000; i++ {
		// Log-uniform magnitudes covering [2^-30, 2^30] (posit8 range
		// is [2^-24, 2^24]).
		h := rng.Float64()*60 - 30
		x := math.Ldexp(1+rng.Float64(), 0) * math.Pow(2, h)
		if rng.Intn(2) == 0 {
			x = -x
		}
		r := new(big.Rat).SetFloat64(x)
		want := refRoundRat(cfg, r)
		got := EncodeFloat64(cfg, x)
		if got != want {
			t.Fatalf("encode(%g) = %#x, reference %#x", x, got, want)
		}
	}
}

// TestEncodeIsNearest32 samples the same reference check for posit32.
func TestEncodeIsNearest32(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("exhaustive check skipped in -short mode")
	}
	cfg := Std32
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 50000; i++ {
		h := rng.Float64()*280 - 140
		x := (1 + rng.Float64()) * math.Pow(2, h)
		if rng.Intn(2) == 0 {
			x = -x
		}
		r := new(big.Rat).SetFloat64(x)
		want := refRoundRat(cfg, r)
		got := EncodeFloat64(cfg, x)
		if got != want {
			t.Fatalf("encode(%g) = %#x, reference %#x", x, got, want)
		}
	}
}

// TestTiesToEven checks consistency with the reference rounder at the
// arithmetic midpoint of every pair of consecutive positive posit8
// values (the hardest inputs for a rounding rule). When the midpoint
// is exactly representable in float64 the two must agree bit-for-bit.
func TestTiesToEven(t *testing.T) {
	cfg := Std8
	for b := uint64(1); b < cfg.MaxPosBits(); b++ {
		v1 := ratFromPosit(cfg, b)
		v2 := ratFromPosit(cfg, b+1)
		mid := new(big.Rat).Add(v1, v2)
		mid.Quo(mid, ratTwo)
		f, exact := mid.Float64()
		if !exact {
			continue // midpoint not a float64; EncodeFloat64 sees a different value
		}
		want := refRoundRat(cfg, mid)
		got := EncodeFloat64(cfg, f)
		if got != want {
			t.Fatalf("midpoint of %#x/%#x (%v): encode %#x, reference %#x", b, b+1, f, got, want)
		}
		// Additionally, a true bit-stream tie (guard=1, sticky=0 in the
		// stream) must land on the even pattern. The stream tie point
		// for posits within one binade is the arithmetic midpoint.
		fb1 := DecodeFields(cfg, b)
		fb2 := DecodeFields(cfg, b+1)
		if fb1.FracLen == fb2.FracLen && fb1.R == fb2.R && fb1.Exp == fb2.Exp {
			if want != b && want != b+1 {
				t.Fatalf("midpoint of %#x/%#x rounded outside the pair: %#x", b, b+1, want)
			}
			if want&1 != 0 {
				t.Fatalf("tie between %#x and %#x resolved to odd pattern %#x", b, b+1, want)
			}
		}
	}
}

func TestDecodeFieldsKnown(t *testing.T) {
	// 186.25 = 2^7 × 1.455078125: r=1, e=3 → regime "110", exp "11".
	b := EncodeFloat64(Std32, 186.25)
	f := DecodeFields(Std32, b)
	if f.K != 2 || f.R != 1 || f.RegimeLen != 3 || f.ExpLen != 2 || f.Exp != 3 {
		t.Errorf("fields of 186.25: %+v", f)
	}
	if f.FracLen != 26 {
		t.Errorf("fracLen of 186.25 = %d, want 26", f.FracLen)
	}
	if got := DecodeFloat64(Std32, b); math.Abs(got-186.25) > 1e-6 {
		t.Errorf("round trip 186.25 -> %v", got)
	}

	// 1.0: regime "10", k=1, r=0.
	f = DecodeFields(Std32, 0x40000000)
	if f.K != 1 || f.R != 0 || f.Exp != 0 || f.Frac != 0 {
		t.Errorf("fields of 1.0: %+v", f)
	}

	// maxpos: untermimated regime of 31 ones.
	f = DecodeFields(Std32, 0x7FFFFFFF)
	if f.K != 31 || f.R != 30 || f.RegimeLen != 31 || f.ExpLen != 0 || f.FracLen != 0 {
		t.Errorf("fields of maxpos: %+v", f)
	}

	// minpos: 30 zeros + terminating 1.
	f = DecodeFields(Std32, 1)
	if f.K != 30 || f.R != -30 || f.RegimeLen != 31 {
		t.Errorf("fields of minpos: %+v", f)
	}

	// Truncated exponent: pattern 0b10 has one exponent bit (value 0).
	f = DecodeFields(Std32, 2)
	if f.K != 29 || f.R != -29 || f.ExpLen != 1 || f.Exp != 0 {
		t.Errorf("fields of pattern 2: %+v", f)
	}
	// Pattern 0b11: the single exponent bit is the MSB → e = 2.
	f = DecodeFields(Std32, 3)
	if f.ExpLen != 1 || f.Exp != 2 {
		t.Errorf("fields of pattern 3: %+v", f)
	}
	if got := DecodeFloat64(Std32, 3); got != math.Ldexp(1, -114) {
		t.Errorf("pattern 3 = %g, want 2^-114", got)
	}
}

func TestFieldAt(t *testing.T) {
	b := EncodeFloat64(Std32, 186.25) // 0|110|11|frac…
	wants := map[int]FieldKind{
		31: FieldSign,
		30: FieldRegime, 29: FieldRegime, 28: FieldRegime,
		27: FieldExponent, 26: FieldExponent,
		25: FieldFraction, 0: FieldFraction,
	}
	for pos, want := range wants {
		if got := FieldAt(Std32, b, pos); got != want {
			t.Errorf("FieldAt(186.25, %d) = %v, want %v", pos, got, want)
		}
	}
	// Zero and NaR: everything below the sign reads as regime.
	if FieldAt(Std32, 0, 31) != FieldSign || FieldAt(Std32, 0, 5) != FieldRegime {
		t.Error("FieldAt on zero pattern misclassified")
	}
	if FieldAt(Std32, Std32.NaR(), 10) != FieldRegime {
		t.Error("FieldAt on NaR pattern misclassified")
	}
}

func TestBitString(t *testing.T) {
	if got := BitString(Std8, EncodeFloat64(Std8, 1)); got != "0|10|00|000" {
		t.Errorf("BitString(1) = %q", got)
	}
	if got := BitString(Std8, Std8.MaxPosBits()); got != "0|1111111" {
		t.Errorf("BitString(maxpos8) = %q", got)
	}
	if got := BitString(Std8, 0); got != "0|0000000" {
		t.Errorf("BitString(0) = %q", got)
	}
}

// TestRegimeRunLengthEq1 cross-checks the regime size against the
// paper's eq. (1): for p > 1, k = floor(log16 p) + 1.
func TestRegimeRunLengthEq1(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		p := math.Exp(rng.Float64()*50 + 0.1) // p > 1, up to e^50
		// Use the posit-rounded value so eq. 1 sees the same number
		// the bit pattern encodes.
		pv := Float64ToNearest(Std32, p)
		if pv <= 1 {
			continue
		}
		want := int(math.Floor(math.Log2(pv)/4)) + 1
		if want > 31 {
			want = 31
		}
		if got := RegimeRunLength(Std32, pv); got != want {
			t.Fatalf("RegimeRunLength(%g) = %d, eq1 gives %d", pv, got, want)
		}
	}
	// And for 0 < p < 1 the run counts zeros: k = -floor(log16 p).
	for i := 0; i < 5000; i++ {
		p := math.Exp(-rng.Float64()*50 - 0.1)
		pv := Float64ToNearest(Std32, p)
		if pv >= 1 || pv <= 0 {
			continue
		}
		want := -int(math.Floor(math.Log2(pv) / 4))
		if want > 30 {
			want = 30
		}
		if got := RegimeRunLength(Std32, pv); got != want {
			t.Fatalf("RegimeRunLength(%g) = %d, eq1 gives %d", pv, got, want)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{{N: 1, ES: 2}, {N: 65, ES: 2}, {N: 32, ES: -1}, {N: 32, ES: 5}}
	for _, c := range bad {
		if c.Validate() == nil {
			t.Errorf("Validate(%v) should fail", c)
		}
	}
	for _, c := range []Config{Std8, Std16, Std32, Std64, {N: 32, ES: 0}, {N: 12, ES: 1}} {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%v): %v", c, err)
		}
	}
}

func TestUseedAndMaxScale(t *testing.T) {
	if Std32.Useed() != 16 {
		t.Errorf("useed(es=2) = %v, want 16", Std32.Useed())
	}
	if (Config{N: 32, ES: 0}).Useed() != 2 {
		t.Error("useed(es=0) should be 2")
	}
	if Std32.MaxScale() != 120 {
		t.Errorf("maxScale posit32 = %d, want 120", Std32.MaxScale())
	}
	if Std8.MaxScale() != 24 {
		t.Errorf("maxScale posit8 = %d, want 24", Std8.MaxScale())
	}
	if Std16.MaxScale() != 56 || Std64.MaxScale() != 248 {
		t.Error("maxScale posit16/posit64 wrong")
	}
}

// TestLegacyESFormats sanity-checks non-standard exponent sizes used
// by the ablation experiments.
func TestLegacyESFormats(t *testing.T) {
	for _, es := range []int{0, 1, 3} {
		cfg := Config{N: 16, ES: es}
		for b := uint64(0); b <= cfg.Mask(); b++ {
			if b == cfg.NaR() {
				continue
			}
			v := DecodeFloat64(cfg, b)
			if rt := EncodeFloat64(cfg, v); rt != b {
				t.Fatalf("%v: round trip of %#x (=%v) gave %#x", cfg, b, v, rt)
			}
			if v2 := DecodeEq2(cfg, b); v2 != v {
				t.Fatalf("%v: eq2 mismatch at %#x: %v vs %v", cfg, b, v2, v)
			}
		}
	}
}
