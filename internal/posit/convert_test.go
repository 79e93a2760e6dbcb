package posit

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// TestConvertWidening: widening a standard posit to a wider standard
// format is exact (same es, more fraction room), and narrowing back
// returns the original pattern.
func TestConvertWidening(t *testing.T) {
	for b := uint64(0); b <= Std16.Mask(); b++ {
		w := Convert(Std16, Std32, b)
		if b == Std16.NaR() {
			if w != Std32.NaR() {
				t.Fatal("NaR should widen to NaR")
			}
			continue
		}
		if DecodeFloat64(Std32, w) != DecodeFloat64(Std16, b) {
			t.Fatalf("widening %#x changed the value", b)
		}
		if back := Convert(Std32, Std16, w); back != b {
			t.Fatalf("narrowing back %#x gave %#x", b, back)
		}
	}
}

// TestConvertNarrowingRounds: narrowing agrees with re-encoding the
// exact value (sampled against the reference rounder).
func TestConvertNarrowingRounds(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(51))
	for i := 0; i < 50000; i++ {
		b := Std32.Canon(rng.Uint64())
		if b == Std32.NaR() {
			continue
		}
		got := Convert(Std32, Std8, b)
		want := refRoundRat(Std8, ratFromPosit(Std32, b))
		if got != want {
			t.Fatalf("narrow %#x: got %#x, want %#x", b, got, want)
		}
	}
	// Cross-es conversion also correctly rounds.
	legacy := Config{N: 16, ES: 0}
	for i := 0; i < 20000; i++ {
		b := Std32.Canon(rng.Uint64())
		if b == Std32.NaR() {
			continue
		}
		got := Convert(Std32, legacy, b)
		want := refRoundRat(legacy, ratFromPosit(Std32, b))
		if got != want {
			t.Fatalf("cross-es %#x: got %#x, want %#x", b, got, want)
		}
	}
}

func TestFromInt64(t *testing.T) {
	t.Parallel()
	cases := []struct {
		v    int64
		want float64
	}{
		{0, 0}, {1, 1}, {-1, -1}, {2, 2}, {100, 100}, {-186, -186},
		{1 << 40, math.Ldexp(1, 40)},
	}
	for _, c := range cases {
		got := DecodeFloat64(Std32, FromInt64(Std32, c.v))
		if got != c.want {
			t.Errorf("FromInt64(%d) = %v, want %v", c.v, got, c.want)
		}
	}
	// Rounding: a 40-bit odd integer can't fit posit32's fraction;
	// result must match encoding via the exact rational.
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 20000; i++ {
		v := int64(rng.Uint64()) // full-range, including MinInt64
		got := FromInt64(Std32, v)
		want := refRoundRat(Std32, new(big.Rat).SetInt64(v))
		if got != want {
			t.Fatalf("FromInt64(%d) = %#x, want %#x", v, got, want)
		}
		u := rng.Uint64()
		gotU := FromUint64(Std16, u)
		wantU := refRoundRat(Std16, new(big.Rat).SetUint64(u))
		if gotU != wantU {
			t.Fatalf("FromUint64(%d) = %#x, want %#x", u, gotU, wantU)
		}
	}
	if FromInt64(Std32, math.MinInt64) != EncodeFloat64(Std32, -math.Ldexp(1, 63)) {
		t.Error("MinInt64 should encode exactly as -2^63")
	}
}

func TestToInt64(t *testing.T) {
	cases := []struct {
		x    float64
		want int64
	}{
		{0, 0}, {1, 1}, {-1, -1}, {1.5, 2}, {2.5, 2}, {-1.5, -2}, {-2.5, -2},
		{0.49, 0}, {0.5, 0}, {0.51, 1}, {-0.5, 0}, {186.25, 186}, {1e9, 1000000000},
	}
	for _, c := range cases {
		if got := ToInt64(Std32, EncodeFloat64(Std32, c.x)); got != c.want {
			t.Errorf("ToInt64(%v) = %d, want %d", c.x, got, c.want)
		}
	}
	if got := ToInt64(Std32, Std32.NaR()); got != math.MinInt64 {
		t.Errorf("ToInt64(NaR) = %d", got)
	}
	// Saturation: maxpos (2^120) overflows int64.
	if got := ToInt64(Std32, Std32.MaxPosBits()); got != math.MaxInt64 {
		t.Errorf("ToInt64(maxpos) = %d", got)
	}
	if got := ToInt64(Std32, Std32.Negate(Std32.MaxPosBits())); got != math.MinInt64 {
		t.Errorf("ToInt64(-maxpos) = %d", got)
	}
	// Round trip: integers exactly representable in posit32 survive.
	rng := rand.New(rand.NewSource(55))
	for i := 0; i < 20000; i++ {
		v := int64(rng.Intn(1 << 20))
		if rng.Intn(2) == 0 {
			v = -v
		}
		if got := ToInt64(Std32, FromInt64(Std32, v)); got != v {
			t.Fatalf("int round trip %d -> %d", v, got)
		}
	}
}

func TestToUint64(t *testing.T) {
	if ToUint64(Std32, EncodeFloat64(Std32, 186.25)) != 186 {
		t.Error("ToUint64(186.25)")
	}
	if ToUint64(Std32, 0) != 0 {
		t.Error("ToUint64(0)")
	}
	if ToUint64(Std32, Std32.NaR()) != 1<<63 {
		t.Error("ToUint64(NaR)")
	}
	if ToUint64(Std32, EncodeFloat64(Std32, -5)) != 0 {
		t.Error("negative should saturate to 0")
	}
	if ToUint64(Std32, Std32.MaxPosBits()) != ^uint64(0) {
		t.Error("maxpos should saturate")
	}
	if ToUint64(Std32, EncodeFloat64(Std32, 2.5)) != 2 {
		t.Error("ties to even")
	}
}

// roundHalfEven rounds r to the nearest integer, ties to even.
func roundHalfEven(r *big.Rat) *big.Int {
	// floor(r + 1/2), stepped back to even when r is a tie.
	up := new(big.Rat).Add(r, big.NewRat(1, 2))
	z := new(big.Int).Div(up.Num(), up.Denom()) // Euclidean: floor, as Denom > 0
	if up.IsInt() && z.Bit(0) == 1 {
		z.Sub(z, big.NewInt(1))
	}
	return z
}

// clampInt returns z limited to [lo, hi].
func clampInt(z, lo, hi *big.Int) *big.Int {
	if z.Cmp(lo) < 0 {
		return lo
	}
	if z.Cmp(hi) > 0 {
		return hi
	}
	return z
}

// TestIntConversionsExhaustive checks ToInt64 and ToUint64 against
// round-half-even of the exact value on every pattern of every
// configuration with N 2–14 and ES 0–4, with the documented
// saturation: values beyond the integer range clamp to it (so every
// negative posit gives ToUint64 0), and NaR gives MinInt64 and
// 0x8000000000000000. ES 3 and 4 reach past 2^64, so both ends of
// both ranges saturate.
func TestIntConversionsExhaustive(t *testing.T) {
	minI, maxI := big.NewInt(math.MinInt64), big.NewInt(math.MaxInt64)
	zero, maxU := new(big.Int), new(big.Int).SetUint64(math.MaxUint64)
	for n := 2; n <= 14; n++ {
		for es := 0; es <= 4; es++ {
			cfg := Config{N: n, ES: es}
			for b := uint64(0); b < 1<<uint(n); b++ {
				wantI, wantU := int64(math.MinInt64), uint64(1)<<63
				if b != cfg.NaR() {
					z := roundHalfEven(ratFromPosit(cfg, b))
					wantI, wantU = clampInt(z, minI, maxI).Int64(), clampInt(z, zero, maxU).Uint64()
				}
				if got := ToInt64(cfg, b); got != wantI {
					t.Fatalf("%v: ToInt64(%#x) = %d, want %d", cfg, b, got, wantI)
				}
				if got := ToUint64(cfg, b); got != wantU {
					t.Fatalf("%v: ToUint64(%#x) = %d, want %d", cfg, b, got, wantU)
				}
			}
		}
	}
}

// TestNextUpDown: successors and predecessors traverse the full
// posit16 order.
func TestNextUpDown(t *testing.T) {
	cfg := Std16
	// Walk from the most negative real to maxpos via NextUp.
	cur := cfg.Canon(cfg.NaR() + 1)
	count := 0
	prev := DecodeFloat64(cfg, cur)
	for cur != cfg.MaxPosBits() {
		next := NextUp(cfg, cur)
		v := DecodeFloat64(cfg, next)
		if !(v > prev) {
			t.Fatalf("NextUp(%#x) not increasing: %v -> %v", cur, prev, v)
		}
		if NextDown(cfg, next) != cur {
			t.Fatalf("NextDown(NextUp(%#x)) != identity", cur)
		}
		cur, prev = next, v
		count++
	}
	if count != int(cfg.Mask())-1 {
		t.Errorf("walked %d steps, want %d", count, int(cfg.Mask())-1)
	}
	// Saturation at the ends.
	if NextUp(cfg, cfg.MaxPosBits()) != cfg.MaxPosBits() {
		t.Error("NextUp(maxpos) should saturate")
	}
	bottom := cfg.Canon(cfg.NaR() + 1)
	if NextDown(cfg, bottom) != bottom {
		t.Error("NextDown(-maxpos) should saturate")
	}
}

// TestFMAExhaustiveP8 checks fused multiply-add against the exact
// rational for every (a, b) pair with a sampled set of addends.
func TestFMAExhaustiveP8(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("exhaustive check skipped in -short mode")
	}
	cfg := Std8
	addends := []uint64{0, 0x40, 0xC0, 0x01, 0x7F, 0x81, 0x33, 0xB3, 0x60, 0xE0}
	for a := uint64(0); a < 256; a++ {
		for b := uint64(0); b < 256; b++ {
			for _, c := range addends {
				got := FMA(cfg, a, b, c)
				if a == cfg.NaR() || b == cfg.NaR() || c == cfg.NaR() {
					if got != cfg.NaR() {
						t.Fatalf("FMA NaR: %#x %#x %#x -> %#x", a, b, c, got)
					}
					continue
				}
				exact := new(big.Rat).Mul(ratFromPosit(cfg, a), ratFromPosit(cfg, b))
				exact.Add(exact, ratFromPosit(cfg, c))
				want := refRoundRat(cfg, exact)
				if got != want {
					t.Fatalf("FMA(%#x,%#x,%#x) = %#x, want %#x (exact %s)",
						a, b, c, got, want, exact.FloatString(10))
				}
			}
		}
	}
}

// TestFMASampled32: random posit32 triples against the exact rational.
func TestFMASampled32(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(57))
	cfg := Std32
	for i := 0; i < 30000; i++ {
		a := cfg.Canon(rng.Uint64())
		b := cfg.Canon(rng.Uint64())
		c := cfg.Canon(rng.Uint64())
		if a == cfg.NaR() || b == cfg.NaR() || c == cfg.NaR() {
			continue
		}
		exact := new(big.Rat).Mul(ratFromPosit(cfg, a), ratFromPosit(cfg, b))
		exact.Add(exact, ratFromPosit(cfg, c))
		got := FMA(cfg, a, b, c)
		want := refRoundRat(cfg, exact)
		if got != want {
			t.Fatalf("FMA(%#x,%#x,%#x) = %#x, want %#x", a, b, c, got, want)
		}
	}
}

// TestFMACancellation: the fused product is not rounded before the
// add, so a×b−(a×b rounded) residues survive where mul-then-add would
// return zero.
func TestFMACancellation(t *testing.T) {
	cfg := Std32
	a := EncodeFloat64(cfg, 1+math.Ldexp(1, -20)) // 1 + 2^-20, exact
	// a² = 1 + 2^-19 + 2^-40; the 2^-40 term is below posit32's
	// precision at scale 0, so Mul rounds it away.
	rounded := Mul(cfg, a, a)
	fused := FMA(cfg, a, a, cfg.Negate(rounded))
	if fused == 0 {
		t.Fatal("FMA lost the sub-ulp residue (behaved like mul+add)")
	}
	separate := Add(cfg, Mul(cfg, a, a), cfg.Negate(rounded))
	if separate != 0 {
		t.Fatal("separate mul+add should cancel exactly")
	}
	// And the residue is exactly a² − rounded(a²).
	exact := new(big.Rat).Mul(ratFromPosit(cfg, a), ratFromPosit(cfg, a))
	exact.Sub(exact, ratFromPosit(cfg, rounded))
	if want := refRoundRat(cfg, exact); fused != want {
		t.Fatalf("residue %#x, want %#x", fused, want)
	}
}

// TestFMASpecialCases covers zero operands.
func TestFMASpecialCases(t *testing.T) {
	cfg := Std32
	c := EncodeFloat64(cfg, 7)
	if FMA(cfg, 0, EncodeFloat64(cfg, 5), c) != c {
		t.Error("0*b+c should be c")
	}
	if FMA(cfg, EncodeFloat64(cfg, 5), 0, c) != c {
		t.Error("a*0+c should be c")
	}
	if FMA(cfg, EncodeFloat64(cfg, 2), EncodeFloat64(cfg, 3), 0) != EncodeFloat64(cfg, 6) {
		t.Error("a*b+0")
	}
	if FMA(cfg, 0, 0, 0) != 0 {
		t.Error("0*0+0")
	}
}
