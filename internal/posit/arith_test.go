package posit

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// ratOp applies an exact rational binary operation.
func ratAdd(a, b *big.Rat) *big.Rat { return new(big.Rat).Add(a, b) }
func ratSub(a, b *big.Rat) *big.Rat { return new(big.Rat).Sub(a, b) }
func ratMul(a, b *big.Rat) *big.Rat { return new(big.Rat).Mul(a, b) }

// TestExhaustiveP8AddSubMul checks every posit8 operand pair against
// the exact rational result rounded by the reference rounder.
func TestExhaustiveP8AddSubMul(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("exhaustive check skipped in -short mode")
	}
	cfg := Std8
	vals := make([]*big.Rat, 256)
	for b := uint64(0); b < 256; b++ {
		if b != cfg.NaR() {
			vals[b] = ratFromPosit(cfg, b)
		}
	}
	type op struct {
		name string
		impl func(Config, uint64, uint64) uint64
		ref  func(a, b *big.Rat) *big.Rat
	}
	ops := []op{{"add", Add, ratAdd}, {"sub", Sub, ratSub}, {"mul", Mul, ratMul}}
	for _, o := range ops {
		for a := uint64(0); a < 256; a++ {
			for b := uint64(0); b < 256; b++ {
				got := o.impl(cfg, a, b)
				if a == cfg.NaR() || b == cfg.NaR() {
					if got != cfg.NaR() {
						t.Fatalf("%s(NaR involved) = %#x, want NaR", o.name, got)
					}
					continue
				}
				want := refRoundRat(cfg, o.ref(vals[a], vals[b]))
				if got != want {
					t.Fatalf("%s(%#x=%v, %#x=%v) = %#x (%v), want %#x (%v)",
						o.name, a, vals[a].FloatString(8), b, vals[b].FloatString(8),
						got, DecodeFloat64(cfg, got), want, DecodeFloat64(cfg, want))
				}
			}
		}
	}
}

// TestExhaustiveP8Div checks every posit8 quotient against the exact
// rational quotient.
func TestExhaustiveP8Div(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("exhaustive check skipped in -short mode")
	}
	cfg := Std8
	for a := uint64(0); a < 256; a++ {
		for b := uint64(0); b < 256; b++ {
			got := Div(cfg, a, b)
			if a == cfg.NaR() || b == cfg.NaR() || b == 0 {
				if got != cfg.NaR() {
					t.Fatalf("div(%#x,%#x) = %#x, want NaR", a, b, got)
				}
				continue
			}
			if a == 0 {
				if got != 0 {
					t.Fatalf("div(0,%#x) = %#x, want 0", b, got)
				}
				continue
			}
			q := new(big.Rat).Quo(ratFromPosit(cfg, a), ratFromPosit(cfg, b))
			want := refRoundRat(cfg, q)
			if got != want {
				t.Fatalf("div(%#x,%#x) = %#x, want %#x (exact %v)", a, b, got, want, q.FloatString(10))
			}
		}
	}
}

// TestExhaustiveP8Sqrt checks every non-negative posit8 square root
// against a high-precision big.Float reference.
func TestExhaustiveP8Sqrt(t *testing.T) {
	cfg := Std8
	for a := uint64(0); a < 256; a++ {
		got := Sqrt(cfg, a)
		if a == cfg.NaR() || cfg.IsNeg(a) {
			if got != cfg.NaR() {
				t.Fatalf("sqrt(%#x) = %#x, want NaR", a, got)
			}
			continue
		}
		if a == 0 {
			if got != 0 {
				t.Fatalf("sqrt(0) = %#x", got)
			}
			continue
		}
		want := refSqrt(cfg, a)
		if got != want {
			t.Fatalf("sqrt(%#x=%v) = %#x (%v), want %#x (%v)",
				a, DecodeFloat64(cfg, a), got, DecodeFloat64(cfg, got), want, DecodeFloat64(cfg, want))
		}
	}
}

// refSqrt rounds the square root of a posit's exact value via a
// 256-bit big.Float and the reference rational rounder.
func refSqrt(cfg Config, a uint64) uint64 {
	v := ratFromPosit(cfg, a)
	f := new(big.Float).SetPrec(256).SetRat(v)
	s := new(big.Float).SetPrec(256).Sqrt(f)
	r, _ := s.Rat(nil)
	// If s^2 != v the 256-bit approximation is inexact; nudging is not
	// needed because 256 bits vastly exceed posit precision and the
	// true root is irrational (so no tie can occur at posit precision).
	// If the root is exact, Rat returns it exactly.
	sq := new(big.Rat).Mul(r, r)
	if sq.Cmp(v) != 0 {
		// Inexact: ensure the rational approximation is not exactly a
		// representable tie point by construction — 256 bits suffice.
		_ = sq
	}
	return refRoundRat(cfg, r)
}

// TestSampledP16P32Arith spot-checks larger widths against the exact
// reference on random operand pairs, including denormal-regime
// extremes.
func TestSampledP16P32Arith(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("exhaustive check skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(17))
	for _, cfg := range []Config{Std16, Std32} {
		for i := 0; i < 30000; i++ {
			a := cfg.Canon(rng.Uint64())
			b := cfg.Canon(rng.Uint64())
			if a == cfg.NaR() || b == cfg.NaR() {
				continue
			}
			ra, rb := ratFromPosit(cfg, a), ratFromPosit(cfg, b)
			if got, want := Add(cfg, a, b), refRoundRat(cfg, ratAdd(ra, rb)); got != want {
				t.Fatalf("%v add(%#x,%#x) = %#x, want %#x", cfg, a, b, got, want)
			}
			if got, want := Sub(cfg, a, b), refRoundRat(cfg, ratSub(ra, rb)); got != want {
				t.Fatalf("%v sub(%#x,%#x) = %#x, want %#x", cfg, a, b, got, want)
			}
			if got, want := Mul(cfg, a, b), refRoundRat(cfg, ratMul(ra, rb)); got != want {
				t.Fatalf("%v mul(%#x,%#x) = %#x, want %#x", cfg, a, b, got, want)
			}
			if b != 0 {
				q := new(big.Rat).Quo(ra, rb)
				if got, want := Div(cfg, a, b), refRoundRat(cfg, q); got != want {
					t.Fatalf("%v div(%#x,%#x) = %#x, want %#x", cfg, a, b, got, want)
				}
			}
		}
	}
}

// TestSampledP64Arith exercises the widest format, where significands
// use nearly the full 64-bit engine width.
func TestSampledP64Arith(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(19))
	cfg := Std64
	for i := 0; i < 5000; i++ {
		a := rng.Uint64()
		b := rng.Uint64()
		if a == cfg.NaR() || b == cfg.NaR() {
			continue
		}
		ra, rb := ratFromPosit(cfg, a), ratFromPosit(cfg, b)
		if got, want := Add(cfg, a, b), refRoundRat(cfg, ratAdd(ra, rb)); got != want {
			t.Fatalf("add(%#x,%#x) = %#x, want %#x", a, b, got, want)
		}
		if got, want := Mul(cfg, a, b), refRoundRat(cfg, ratMul(ra, rb)); got != want {
			t.Fatalf("mul(%#x,%#x) = %#x, want %#x", a, b, got, want)
		}
		if b != 0 {
			q := new(big.Rat).Quo(ra, rb)
			if got, want := Div(cfg, a, b), refRoundRat(cfg, q); got != want {
				t.Fatalf("div(%#x,%#x) = %#x, want %#x", a, b, got, want)
			}
		}
	}
}

// TestArithIdentities checks algebraic identities that must hold
// bit-for-bit because both sides round the same exact value.
func TestArithIdentities(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cfg := Std32
	one := EncodeFloat64(cfg, 1)
	two := EncodeFloat64(cfg, 2)
	for i := 0; i < 50000; i++ {
		a := cfg.Canon(rng.Uint64())
		b := cfg.Canon(rng.Uint64())
		if a == cfg.NaR() || b == cfg.NaR() {
			continue
		}
		if Add(cfg, a, b) != Add(cfg, b, a) {
			t.Fatalf("add not commutative: %#x %#x", a, b)
		}
		if Mul(cfg, a, b) != Mul(cfg, b, a) {
			t.Fatalf("mul not commutative: %#x %#x", a, b)
		}
		if Add(cfg, a, 0) != a {
			t.Fatalf("a+0 != a for %#x", a)
		}
		if Mul(cfg, a, one) != a {
			t.Fatalf("a*1 != a for %#x", a)
		}
		if Sub(cfg, a, a) != 0 {
			t.Fatalf("a-a != 0 for %#x", a)
		}
		if a != 0 {
			if Div(cfg, a, a) != one {
				t.Fatalf("a/a != 1 for %#x", a)
			}
		}
		if Add(cfg, a, a) != Mul(cfg, a, two) {
			t.Fatalf("a+a != 2a for %#x", a)
		}
		if Sub(cfg, a, b) != Add(cfg, a, cfg.Negate(b)) {
			t.Fatalf("a-b != a+(-b) for %#x %#x", a, b)
		}
	}
}

// TestSqrtSampled32 checks posit32 square roots against the reference.
func TestSqrtSampled32(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("exhaustive check skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(29))
	cfg := Std32
	for i := 0; i < 20000; i++ {
		a := cfg.Canon(rng.Uint64()) &^ cfg.SignMask() // non-negative
		if a == 0 {
			continue
		}
		got := Sqrt(cfg, a)
		want := refSqrt(cfg, a)
		if got != want {
			t.Fatalf("sqrt(%#x=%v) = %#x, want %#x", a, DecodeFloat64(cfg, a), got, want)
		}
	}
}

// TestSqrtPerfectSquares: sqrt of an exactly representable square is
// exact.
func TestSqrtPerfectSquares(t *testing.T) {
	cfg := Std32
	for i := 1; i <= 1000; i++ {
		x := float64(i)
		sq := EncodeFloat64(cfg, x*x)
		if DecodeFloat64(cfg, sq) != x*x {
			continue // square not exactly representable; skip
		}
		want := EncodeFloat64(cfg, x)
		if DecodeFloat64(cfg, want) != x {
			continue
		}
		if got := Sqrt(cfg, sq); got != want {
			t.Fatalf("sqrt(%v^2) = %v, want %v", x, DecodeFloat64(cfg, got), x)
		}
	}
}

func TestCmp(t *testing.T) {
	cfg := Std32
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 50000; i++ {
		a := cfg.Canon(rng.Uint64())
		b := cfg.Canon(rng.Uint64())
		if a == cfg.NaR() || b == cfg.NaR() {
			// NaR sorts below all reals.
			if a == cfg.NaR() && b != cfg.NaR() && Cmp(cfg, a, b) != -1 {
				t.Fatalf("NaR should compare below %#x", b)
			}
			continue
		}
		va, vb := DecodeFloat64(cfg, a), DecodeFloat64(cfg, b)
		want := 0
		if va < vb {
			want = -1
		} else if va > vb {
			want = 1
		}
		if got := Cmp(cfg, a, b); got != want {
			t.Fatalf("cmp(%v, %v) = %d, want %d", va, vb, got, want)
		}
	}
}

// TestIsqrt128 checks the 128-bit integer square root against direct
// verification: root² <= x < (root+1)².
func TestIsqrt128(t *testing.T) {
	cases := []struct{ hi, lo uint64 }{
		{0, 0}, {0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 15}, {0, 16}, {0, 17},
		{0, math.MaxUint64}, {1, 0}, {1, 1}, {math.MaxUint64, math.MaxUint64},
		{1 << 62, 0}, {1 << 63, 0},
	}
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 2000; i++ {
		cases = append(cases, struct{ hi, lo uint64 }{rng.Uint64(), rng.Uint64()})
	}
	for _, c := range cases {
		root, rem := isqrt128(c.hi, c.lo)
		x := new(big.Int).SetUint64(c.hi)
		x.Lsh(x, 64)
		x.Or(x, new(big.Int).SetUint64(c.lo))
		r := new(big.Int).SetUint64(root)
		r2 := new(big.Int).Mul(r, r)
		if r2.Cmp(x) > 0 {
			t.Fatalf("isqrt(%#x:%#x) = %d too large", c.hi, c.lo, root)
		}
		r1 := new(big.Int).Add(r, big.NewInt(1))
		r12 := new(big.Int).Mul(r1, r1)
		if r12.Cmp(x) <= 0 {
			t.Fatalf("isqrt(%#x:%#x) = %d too small", c.hi, c.lo, root)
		}
		if rem != (r2.Cmp(x) != 0) {
			t.Fatalf("isqrt(%#x:%#x): rem flag %v wrong", c.hi, c.lo, rem)
		}
	}
}

// TestWrapperTypes smoke-tests the four concrete wrapper types.
func TestWrapperTypes(t *testing.T) {
	p := P32FromFloat64(2.5)
	q := P32FromFloat64(1.5)
	if p.Add(q).Float64() != 4 {
		t.Error("posit32 2.5+1.5 != 4")
	}
	if p.Sub(q).Float64() != 1 {
		t.Error("posit32 2.5-1.5 != 1")
	}
	if p.Mul(q).Float64() != 3.75 {
		t.Error("posit32 2.5*1.5 != 3.75")
	}
	if P32FromFloat64(9).Sqrt().Float64() != 3 {
		t.Error("posit32 sqrt(9) != 3")
	}
	if p.Neg().Float64() != -2.5 || p.Neg().Abs() != p {
		t.Error("posit32 neg/abs")
	}
	if p.Cmp(q) != 1 || q.Cmp(p) != -1 || p.Cmp(p) != 0 {
		t.Error("posit32 cmp")
	}
	if !P32FromBits(0x80000000).IsNaR() || !P32FromBits(0).IsZero() {
		t.Error("posit32 special classifiers")
	}
	if p.String() != "2.5" || P32FromBits(0x80000000).String() != "NaR" || P32FromBits(0).String() != "0" {
		t.Errorf("posit32 String: %q %q", p.String(), P32FromBits(0x80000000).String())
	}

	p16 := P16FromFloat64(2.5)
	if p16.Add(P16FromFloat64(1.5)).Float64() != 4 || p16.Mul(P16FromFloat64(2)).Float64() != 5 {
		t.Error("posit16 arith")
	}
	if P16FromBits(p16.Bits()) != p16 || p16.Neg().Neg() != p16 {
		t.Error("posit16 bits/neg")
	}
	if P16FromFloat64(4).Sqrt().Float64() != 2 || P16FromFloat64(5).Div(P16FromFloat64(2)).Float64() != 2.5 {
		t.Error("posit16 sqrt/div")
	}
	if P16FromFloat64(1).Fields().R != 0 {
		t.Error("posit16 fields")
	}

	p8 := P8FromFloat64(2)
	if p8.Add(P8FromFloat64(2)).Float64() != 4 || p8.Sub(P8FromFloat64(1)).Float64() != 1 {
		t.Error("posit8 arith")
	}
	if p8.Div(P8FromFloat64(2)).Float64() != 1 || P8FromFloat64(16).Sqrt().Float64() != 4 {
		t.Error("posit8 div/sqrt")
	}
	if p8.Cmp(P8FromFloat64(3)) != -1 || !P8FromBits(0x80).IsNaR() {
		t.Error("posit8 cmp/nar")
	}
	if p8.Abs() != p8 || p8.Neg().Abs() != p8 || !P8FromBits(0).IsZero() {
		t.Error("posit8 abs/zero")
	}

	p64 := P64FromFloat64(1e10)
	if p64.Float64() != 1e10 {
		t.Error("posit64 round trip 1e10")
	}
	if p64.Mul(P64FromFloat64(2)).Float64() != 2e10 || p64.Div(p64).Float64() != 1 {
		t.Error("posit64 arith")
	}
	if p64.Add(p64.Neg()).Float64() != 0 || p64.Sub(p64).Float64() != 0 {
		t.Error("posit64 cancellation")
	}
	if P64FromFloat64(4).Sqrt().Float64() != 2 || p64.Cmp(P64FromFloat64(1)) != 1 {
		t.Error("posit64 sqrt/cmp")
	}
	if P64FromBits(Std64.NaR()).String() != "NaR" || !P64FromBits(Std64.NaR()).IsNaR() {
		t.Error("posit64 NaR")
	}
	if P64FromBits(0).Abs() != 0 || !P64FromBits(0).IsZero() {
		t.Error("posit64 zero")
	}
	if p8.String() == "" || p16.String() == "" || p64.String() == "" {
		t.Error("String renders")
	}
	if p8.Fields().Cfg != Std8 || p64.Fields().Cfg != Std64 {
		t.Error("Fields cfg")
	}
}
