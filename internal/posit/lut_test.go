package posit

import (
	"math"
	"testing"
)

// TestLUTDecodeEquivalence proves the table-backed DecodeFloat64
// matches both the bit-walking reference decoder and the eq. (2)
// decoder over every 2^8 and 2^16 bit pattern. Comparison is on
// float64 bit patterns so NaN (the NaR decoding) and signed zero are
// checked exactly.
func TestLUTDecodeEquivalence(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		max  uint64
	}{
		{"posit8", Std8, 1 << 8},
		{"posit16", Std16, 1 << 16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for b := uint64(0); b < tc.max; b++ {
				lut := DecodeFloat64(tc.cfg, b)
				ref := refDecode(tc.cfg, b)
				eq2 := DecodeEq2(tc.cfg, b)
				if math.Float64bits(lut) != math.Float64bits(ref) {
					t.Fatalf("%s pattern %#x: LUT %v (%#x) != reference %v (%#x)",
						tc.name, b, lut, math.Float64bits(lut), ref, math.Float64bits(ref))
				}
				if math.Float64bits(lut) != math.Float64bits(eq2) {
					t.Fatalf("%s pattern %#x: LUT %v (%#x) != eq2 %v (%#x)",
						tc.name, b, lut, math.Float64bits(lut), eq2, math.Float64bits(eq2))
				}
			}
		})
	}
}

// TestLUTIgnoresHighGarbageBits: DecodeFloat64 masks the index the
// same way Canon would, so patterns with stray high bits decode
// identically through the table and the reference decoder.
func TestLUTIgnoresHighGarbageBits(t *testing.T) {
	patterns := []uint64{0, 1, 0x80, 0x7F, 0xAB, 0x8000, 0x7FFF, 0xBEEF}
	garbage := []uint64{0, 0xFFFF_0000, 0xDEAD_BEEF_0000_0000}
	for _, cfg := range []Config{Std8, Std16} {
		for _, p := range patterns {
			for _, g := range garbage {
				dirty := p | (g &^ cfg.Mask())
				a := DecodeFloat64(cfg, dirty)
				b := refDecode(cfg, dirty)
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("%v pattern %#x with garbage: LUT %v != reference %v", cfg, dirty, a, b)
				}
			}
		}
	}
}

// TestLUTNonStandardConfigsBypassTable: legacy-es and odd widths must
// not be served by the standard-config tables.
func TestLUTNonStandardConfigsBypassTable(t *testing.T) {
	for _, cfg := range []Config{{N: 8, ES: 0}, {N: 16, ES: 1}, {N: 8, ES: 3}, {N: 12, ES: 2}} {
		for _, b := range []uint64{1, 0x42, cfg.MaxPosBits(), cfg.NaR()} {
			got := DecodeFloat64(cfg, b)
			want := refDecode(cfg, b)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%v pattern %#x: DecodeFloat64 %v != reference %v", cfg, b, got, want)
			}
		}
	}
}
