package posit

// Native fuzz targets. Under plain `go test` the seed corpus runs as
// regression tests; `go test -fuzz=FuzzX` explores further.

import (
	"math"
	"math/big"
	"testing"
)

func FuzzEncodeDecodeRoundTrip(f *testing.F) {
	f.Add(0.0)
	f.Add(1.0)
	f.Add(-186.25)
	f.Add(math.Ldexp(1, -120))
	f.Add(math.Ldexp(1.999, 119))
	f.Add(math.SmallestNonzeroFloat64)
	f.Add(math.MaxFloat64)
	f.Fuzz(func(t *testing.T, x float64) {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return
		}
		for _, cfg := range []Config{Std8, Std16, Std32, Std64} {
			b := EncodeFloat64(cfg, x)
			if b != cfg.Canon(b) {
				t.Fatalf("%v: encode produced non-canonical bits %#x", cfg, b)
			}
			if want := refEncode(cfg, x); b != want {
				t.Fatalf("%v: encode of %g gave %#x, reference assemble %#x", cfg, x, b, want)
			}
			v := DecodeFloat64(cfg, b)
			if x != 0 && v == 0 {
				t.Fatalf("%v: nonzero %g rounded to zero", cfg, x)
			}
			if math.IsNaN(v) {
				t.Fatalf("%v: finite %g decoded to NaN", cfg, x)
			}
			if rt := EncodeFloat64(cfg, v); rt != b {
				t.Fatalf("%v: re-encode of %g gave %#x, want %#x", cfg, v, rt, b)
			}
			// Sign preservation.
			if x != 0 && (v < 0) != (x < 0) {
				t.Fatalf("%v: sign flipped: %g -> %g", cfg, x, v)
			}
		}
	})
}

func FuzzDecodersAgree(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(0x80000000))
	f.Add(uint64(0x40000000))
	f.Add(^uint64(0))
	f.Add(uint64(0x0000000180000001))
	f.Fuzz(func(t *testing.T, raw uint64) {
		for _, cfg := range []Config{Std8, Std16, Std32, Std64, {N: 19, ES: 1}, {N: 32, ES: 0}, {N: 32, ES: 1}, {N: 32, ES: 3}} {
			b := cfg.Canon(raw)
			for pos := 0; pos < cfg.N; pos++ {
				f, k := FieldAndRegimeK(cfg, raw, pos)
				if want, wantK := refFieldAt(cfg, b, pos), refDecodeFields(cfg, b).K; f != want || k != wantK {
					t.Fatalf("%v: layout of %#x at bit %d is (%v, %d), reference (%v, %d)", cfg, b, pos, f, k, want, wantK)
				}
			}
			checkDecode(t, cfg, raw)
			if b == cfg.NaR() {
				continue
			}
			if v1, v2 := DecodeFloat64(cfg, b), DecodeEq2(cfg, b); v1 != v2 {
				t.Fatalf("%v: decoders disagree at %#x: %v vs %v", cfg, b, v1, v2)
			}
		}
	})
}

func FuzzAddAgainstRat(f *testing.F) {
	f.Add(uint32(0x40000000), uint32(0x40000000))
	f.Add(uint32(0x7FFFFFFF), uint32(1))
	f.Add(uint32(0xC0000000), uint32(0x40000000))
	f.Add(uint32(0x00000001), uint32(0xFFFFFFFF))
	f.Fuzz(func(t *testing.T, a, b uint32) {
		x, y := uint64(a), uint64(b)
		if x == Std32.NaR() || y == Std32.NaR() {
			return
		}
		got := Add(Std32, x, y)
		exact := new(big.Rat).Add(ratFromPosit(Std32, x), ratFromPosit(Std32, y))
		if want := refRoundRat(Std32, exact); got != want {
			t.Fatalf("add(%#x,%#x) = %#x, want %#x", x, y, got, want)
		}
	})
}

func FuzzParse(f *testing.F) {
	f.Add("0")
	f.Add("186.25")
	f.Add("-1e-30")
	f.Add("NaR")
	f.Add("3/4")
	f.Add("1.7976931348623157e308")
	f.Add("not a number")
	f.Fuzz(func(t *testing.T, s string) {
		b, err := Parse(Std32, s)
		if err != nil {
			return // rejected input
		}
		if b != Std32.Canon(b) {
			t.Fatalf("Parse(%q) produced non-canonical bits", s)
		}
		// Whatever parsed must format and re-parse to the same pattern.
		out := Format(Std32, b, 'g', -1)
		back, err := Parse(Std32, out)
		if err != nil || back != b {
			t.Fatalf("Parse(%q)=%#x, reformat %q reparsed to %#x (%v)", s, b, out, back, err)
		}
	})
}

func FuzzQuireFMA(f *testing.F) {
	f.Add(uint32(0x40000000), uint32(0x40000000), uint32(0xC0000000))
	f.Add(uint32(1), uint32(0x7FFFFFFF), uint32(0))
	f.Fuzz(func(t *testing.T, a, b, c uint32) {
		x, y, z := uint64(a), uint64(b), uint64(c)
		if x == Std32.NaR() || y == Std32.NaR() || z == Std32.NaR() {
			return
		}
		// FMA and a quire computing x*y + z must agree exactly (both
		// are single-rounding).
		got := FMA(Std32, x, y, z)
		q := NewQuire(Std32)
		q.AddProduct(x, y)
		q.AddPosit(z)
		if want := q.ToPosit(); got != want {
			t.Fatalf("FMA(%#x,%#x,%#x) = %#x, quire says %#x", x, y, z, got, want)
		}
	})
}
