package numfmt

import (
	"math"
	"testing"

	"positres/internal/posit"
)

func TestRegistry(t *testing.T) {
	names := Names()
	want := map[string]bool{
		"posit8": true, "posit16": true, "posit32": true, "posit64": true,
		"posit32es0": true, "posit32es1": true, "posit32es3": true,
		"ieee16": true, "bfloat16": true, "ieee32": true, "ieee64": true,
	}
	if len(names) != len(want) {
		t.Errorf("registry has %d codecs: %v", len(names), names)
	}
	for n := range want {
		c, err := Lookup(n)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", n, err)
		}
		if c.Name() != n {
			t.Errorf("codec %q reports name %q", n, c.Name())
		}
	}
	if _, err := Lookup("float128"); err == nil {
		t.Error("unknown codec should error")
	}
}

func TestPositCodec(t *testing.T) {
	c, _ := Lookup("posit32")
	if c.Width() != 32 {
		t.Error("width")
	}
	b := c.Encode(186.25)
	if got := c.Decode(b); math.Abs(got-186.25) > 1e-5 {
		t.Errorf("round trip: %v", got)
	}
	if c.FieldAt(b, 31) != "sign" || c.FieldAt(b, 30) != "regime" {
		t.Error("field names")
	}
	if c.FieldAt(b, 27) != "exponent" || c.FieldAt(b, 0) != "fraction" {
		t.Error("field names (exp/frac)")
	}
	if !c.IsSpecial(uint64(1) << 31) {
		t.Error("NaR should be special")
	}
	if c.IsSpecial(b) || c.IsSpecial(0) {
		t.Error("ordinary values should not be special")
	}
	rs, ok := c.(RegimeSizer)
	if !ok {
		t.Fatal("posit codec must implement RegimeSizer")
	}
	if k := rs.RegimeK(c.Encode(1)); k != 1 {
		t.Errorf("RegimeK(1) = %d", k)
	}
	if k := rs.RegimeK(c.Encode(186.25)); k != 2 {
		t.Errorf("RegimeK(186.25) = %d", k)
	}
	for pos := 0; pos < 32; pos++ {
		if f, k := rs.FieldAndRegimeK(b, pos); f != c.FieldAt(b, pos) || k != 2 {
			t.Errorf("FieldAndRegimeK(186.25, %d) = (%s, %d), want (%s, 2)", pos, f, k, c.FieldAt(b, pos))
		}
	}
}

func TestIEEECodec(t *testing.T) {
	c, _ := Lookup("ieee32")
	if c.Width() != 32 {
		t.Error("width")
	}
	b := c.Encode(186.25)
	if got := c.Decode(b); got != 186.25 {
		t.Errorf("round trip: %v", got)
	}
	if c.FieldAt(b, 31) != "sign" || c.FieldAt(b, 25) != "exponent" || c.FieldAt(b, 3) != "fraction" {
		t.Error("field names")
	}
	if !c.IsSpecial(c.Encode(math.Inf(1))) || !c.IsSpecial(c.Encode(math.NaN())) {
		t.Error("Inf/NaN should be special")
	}
	if c.IsSpecial(b) {
		t.Error("ordinary value special")
	}
	if _, ok := c.(RegimeSizer); ok {
		t.Error("IEEE codec must not claim a regime")
	}
}

func TestCustomPositCodec(t *testing.T) {
	c := NewPositCodec(Config{N: 20, ES: 1})
	if c.Name() != "posit20es1" || c.Width() != 20 {
		t.Errorf("custom codec: %s width %d", c.Name(), c.Width())
	}
	if got := c.Decode(c.Encode(3)); got != 3 {
		t.Errorf("custom round trip: %v", got)
	}
	std := NewPositCodec(posit.Std16)
	if std.Name() != "posit16" {
		t.Errorf("standard es elided: %s", std.Name())
	}
}

// TestCodecAgreement: the posit32 codec agrees with the posit package
// and the ieee32 codec with the native float32 path.
func TestCodecAgreement(t *testing.T) {
	pc, _ := Lookup("posit32")
	ic, _ := Lookup("ieee32")
	for _, x := range []float64{0, 1, -1, 186.25, 1e-20, -3.5e10, 0.0625} {
		if pc.Encode(x) != posit.EncodeFloat64(posit.Std32, x) {
			t.Errorf("posit codec disagreement at %g", x)
		}
		if uint32(ic.Encode(x)) != math.Float32bits(float32(x)) {
			t.Errorf("ieee codec disagreement at %g", x)
		}
	}
}
