package posit

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

func TestFormatBasics(t *testing.T) {
	cases := []struct {
		x      float64
		format byte
		prec   int
		want   string
	}{
		{0, 'g', -1, "0"},
		{1, 'g', -1, "1"},
		{-1, 'g', -1, "-1"},
		{186.25, 'f', 2, "186.25"},
		{0.5, 'g', -1, "0.5"},
		{1.5, 'e', 3, "1.500e+00"},
	}
	for _, c := range cases {
		b := EncodeFloat64(Std32, c.x)
		if got := Format(Std32, b, c.format, c.prec); got != c.want {
			t.Errorf("Format(%v, %c, %d) = %q, want %q", c.x, c.format, c.prec, got, c.want)
		}
	}
	if got := Format(Std32, Std32.NaR(), 'g', -1); got != "NaR" {
		t.Errorf("NaR formats as %q", got)
	}
	// Extreme values format without float64 overflow artifacts.
	if got := Format(Std32, Std32.MaxPosBits(), 'e', 4); got != "1.3292e+36" {
		t.Errorf("maxpos32: %q", got)
	}
	if got := Format(Std64, Std64.MaxPosBits(), 'e', 3); got != "4.523e+74" {
		t.Errorf("maxpos64: %q", got)
	}
}

func TestParseBasics(t *testing.T) {
	cases := []struct {
		s    string
		want float64
	}{
		{"0", 0},
		{"1", 1},
		{"-1", -1},
		{"186.25", 186.25},
		{"1.5e2", 150},
		{"  0.0625\n", 0.0625},
		{"-2.5E-1", -0.25},
	}
	for _, c := range cases {
		b, err := Parse(Std32, c.s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.s, err)
		}
		if got := DecodeFloat64(Std32, b); got != c.want {
			t.Errorf("Parse(%q) = %v, want %v", c.s, got, c.want)
		}
	}
	for _, s := range []string{"NaR", "nar", "NaN"} {
		if b, err := Parse(Std32, s); err != nil || b != Std32.NaR() {
			t.Errorf("Parse(%q) = %#x, %v", s, b, err)
		}
	}
	// Infinities saturate.
	if b, _ := Parse(Std32, "+Inf"); b != Std32.MaxPosBits() {
		t.Error("Parse(+Inf)")
	}
	if b, _ := Parse(Std32, "-inf"); b != Std32.Negate(Std32.MaxPosBits()) {
		t.Error("Parse(-inf)")
	}
	for _, bad := range []string{"", "x", "1.2.3", "-"} {
		if _, err := Parse(Std32, bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

// TestParseMatchesEncode: for strings that are exact float64 values,
// Parse agrees with EncodeFloat64.
func TestParseMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, cfg := range []Config{Std8, Std16, Std32} {
		for i := 0; i < 5000; i++ {
			x := math.Ldexp(rng.Float64()*2-1, rng.Intn(90)-45)
			s := strconv.FormatFloat(x, 'g', -1, 64)
			got, err := Parse(cfg, s)
			if err != nil {
				t.Fatalf("%v Parse(%q): %v", cfg, s, err)
			}
			if want := EncodeFloat64(cfg, x); got != want {
				t.Fatalf("%v Parse(%q) = %#x, Encode = %#x", cfg, s, got, want)
			}
		}
	}
}

// TestParseBeyondFloat64: posit64 parsing is exact where float64 would
// double-round. 2^40 + 1 + 2^-9 needs 50 significand bits — fine for
// both — but a 60-significant-bit decimal exercises the big.Rat path.
func TestParseBeyondFloat64(t *testing.T) {
	// A posit64 with h=0 and a 59-bit all-ones fraction (sign 0,
	// regime "10", exp "00"): its exact decimal expansion needs more
	// significand bits than float64 carries.
	bits := uint64(0b10)<<61 | (uint64(1)<<59 - 1)
	s := Format(Std64, bits, 'e', 25)
	back, err := Parse(Std64, s)
	if err != nil {
		t.Fatal(err)
	}
	if back != bits {
		t.Fatalf("round trip through 25-digit decimal: %#x -> %q -> %#x", bits, s, back)
	}
}

// TestFormatParseRoundTripExhaustive16: shortest 'g' formatting
// round-trips every posit16 pattern.
func TestFormatParseRoundTripExhaustive16(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("exhaustive check skipped in -short mode")
	}
	cfg := Std16
	for b := uint64(0); b <= cfg.Mask(); b++ {
		s := Format(cfg, b, 'g', -1)
		back, err := Parse(cfg, s)
		if err != nil {
			t.Fatalf("pattern %#x -> %q: %v", b, s, err)
		}
		if back != b {
			t.Fatalf("pattern %#x -> %q -> %#x", b, s, back)
		}
	}
}

// TestFormatParseRoundTripSampled32And64 samples the wide formats.
func TestFormatParseRoundTripSampled32And64(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(73))
	for _, cfg := range []Config{Std32, Std64} {
		for i := 0; i < 3000; i++ {
			b := cfg.Canon(rng.Uint64())
			s := Format(cfg, b, 'g', -1)
			back, err := Parse(cfg, s)
			if err != nil {
				t.Fatalf("%v pattern %#x -> %q: %v", cfg, b, s, err)
			}
			if back != b {
				t.Fatalf("%v pattern %#x -> %q -> %#x", cfg, b, s, back)
			}
		}
	}
}

// TestParseRoundsCorrectly: decimal strings between representable
// posits round to the nearest (via the reference rounder).
func TestParseRoundsCorrectly(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for i := 0; i < 3000; i++ {
		// Random decimal with many digits.
		x := (rng.Float64()*2 - 1) * math.Pow(10, float64(rng.Intn(20)-10))
		s := strconv.FormatFloat(x, 'e', 17, 64)
		got, err := Parse(Std16, s)
		if err != nil {
			t.Fatal(err)
		}
		want := EncodeFloat64(Std16, x) // x is exactly the parsed value
		if got != want {
			t.Fatalf("Parse(%q) = %#x, want %#x", s, got, want)
		}
	}
}

func TestTextMethods(t *testing.T) {
	if P32FromFloat64(2.5).Text('g', -1) != "2.5" {
		t.Error("p32 Text")
	}
	if P16FromFloat64(0.5).Text('f', 1) != "0.5" {
		t.Error("p16 Text")
	}
	if P8FromFloat64(4).Text('g', -1) != "4" {
		t.Error("p8 Text")
	}
	if P64FromFloat64(1e10).Text('e', 1) != "1.0e+10" {
		t.Error("p64 Text")
	}
	if p, err := ParseP32("3.25"); err != nil || p.Float64() != 3.25 {
		t.Error("ParseP32")
	}
}
