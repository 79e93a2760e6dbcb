package posit

// Property-based invariants via testing/quick, complementing the
// exhaustive and reference-based tests: these state algebraic laws the
// posit system must satisfy for arbitrary inputs.

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

func qcfg(n int) *quick.Config { return &quick.Config{MaxCount: n} }

// canon32 maps arbitrary fuzz input to a non-NaR posit32 pattern.
func canon32(raw uint32) uint64 {
	b := uint64(raw)
	if b == Std32.NaR() {
		b = 0
	}
	return b
}

func TestQuickNegationInvolution(t *testing.T) {
	f := func(raw uint32) bool {
		b := uint64(raw)
		return Std32.Negate(Std32.Negate(b)) == b
	}
	if err := quick.Check(f, qcfg(10000)); err != nil {
		t.Error(err)
	}
}

func TestQuickAddCommutes(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := canon32(a), canon32(b)
		return Add(Std32, x, y) == Add(Std32, y, x)
	}
	if err := quick.Check(f, qcfg(10000)); err != nil {
		t.Error(err)
	}
}

func TestQuickMulCommutes(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := canon32(a), canon32(b)
		return Mul(Std32, x, y) == Mul(Std32, y, x)
	}
	if err := quick.Check(f, qcfg(10000)); err != nil {
		t.Error(err)
	}
}

// TestQuickNegationDistributes: -(a+b) == (-a)+(-b) bit-exactly
// (rounding is symmetric around zero).
func TestQuickNegationDistributes(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := canon32(a), canon32(b)
		lhs := Std32.Negate(Add(Std32, x, y))
		rhs := Add(Std32, Std32.Negate(x), Std32.Negate(y))
		return lhs == rhs
	}
	if err := quick.Check(f, qcfg(10000)); err != nil {
		t.Error(err)
	}
}

// TestQuickMulSignRule: sign(a×b) = sign(a)·sign(b) whenever neither
// operand is zero/NaR (no underflow to zero in posits).
func TestQuickMulSignRule(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := canon32(a), canon32(b)
		if x == 0 || y == 0 {
			return true
		}
		p := Mul(Std32, x, y)
		if p == 0 || p == Std32.NaR() {
			return false // products of nonzero reals are nonzero reals
		}
		wantNeg := Std32.IsNeg(x) != Std32.IsNeg(y)
		return Std32.IsNeg(p) == wantNeg
	}
	if err := quick.Check(f, qcfg(10000)); err != nil {
		t.Error(err)
	}
}

// TestQuickAddMonotone: a <= b implies a+c <= b+c (posit rounding is
// monotone).
func TestQuickAddMonotone(t *testing.T) {
	f := func(a, b, c uint32) bool {
		x, y, z := canon32(a), canon32(b), canon32(c)
		if Cmp(Std32, x, y) > 0 {
			x, y = y, x
		}
		return Cmp(Std32, Add(Std32, x, z), Add(Std32, y, z)) <= 0
	}
	if err := quick.Check(f, qcfg(10000)); err != nil {
		t.Error(err)
	}
}

// TestQuickEncodeMonotone: x <= y implies encode(x) <= encode(y) in
// posit order.
func TestQuickEncodeMonotone(t *testing.T) {
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
			return true
		}
		if x > y {
			x, y = y, x
		}
		return Cmp(Std32, EncodeFloat64(Std32, x), EncodeFloat64(Std32, y)) <= 0
	}
	if err := quick.Check(f, qcfg(10000)); err != nil {
		t.Error(err)
	}
}

// TestQuickAbsNonNegative: |p| >= 0 and Abs is idempotent.
func TestQuickAbsNonNegative(t *testing.T) {
	f := func(raw uint32) bool {
		p := P32FromBits(raw)
		if p.IsNaR() {
			return true
		}
		a := p.Abs()
		return !Std32.IsNeg(uint64(a)) && a.Abs() == a
	}
	if err := quick.Check(f, qcfg(10000)); err != nil {
		t.Error(err)
	}
}

// TestQuickDivMulInverse: (a/b)×b returns to a within the relative
// precision of the coarsest intermediate — under tapered precision the
// bound is set by the quotient's and product's fraction lengths, not
// by a fixed ulp count.
func TestQuickDivMulInverse(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := canon32(a), canon32(b)
		if x == 0 || y == 0 {
			return true
		}
		// Skip when the quotient saturates (information destroyed).
		q := Div(Std32, x, y)
		if q == Std32.MaxPosBits() || q == Std32.Negate(Std32.MaxPosBits()) ||
			q == Std32.MinPosBits() || q == Std32.Negate(Std32.MinPosBits()) {
			return true
		}
		back := Mul(Std32, q, y)
		vx := DecodeFloat64(Std32, x)
		vb := DecodeFloat64(Std32, back)
		if vx == 0 || math.IsNaN(vb) {
			return false
		}
		mq := DecodeFields(Std32, Std32.Canon(absBits(q))).FracLen
		mb := DecodeFields(Std32, Std32.Canon(absBits(back))).FracLen
		m := mq
		if mb < m {
			m = mb
		}
		bound := math.Ldexp(1, 1-m) // one rounding at each precision
		return math.Abs(vb-vx)/math.Abs(vx) <= bound
	}
	if err := quick.Check(f, qcfg(5000)); err != nil {
		t.Error(err)
	}
}

func absBits(b uint64) uint64 {
	if Std32.IsNeg(b) {
		return Std32.Negate(b)
	}
	return b
}

// TestQuickQuireMatchesRationalSum: quire accumulation of a handful of
// posits equals the exact rational sum rounded once.
func TestQuickQuireMatchesRationalSum(t *testing.T) {
	f := func(raws [5]uint32) bool {
		q := NewQuire(Std32)
		exact := new(big.Rat)
		for _, r := range raws {
			b := canon32(r)
			q.AddPosit(b)
			exact.Add(exact, ratFromPosit(Std32, b))
		}
		return q.ToPosit() == refRoundRat(Std32, exact)
	}
	if err := quick.Check(f, qcfg(2000)); err != nil {
		t.Error(err)
	}
}

// TestQuickConvertWidenExact: widening to posit64 is lossless.
func TestQuickConvertWidenExact(t *testing.T) {
	f := func(raw uint32) bool {
		b := canon32(raw)
		w := Convert(Std32, Std64, b)
		return Convert(Std64, Std32, w) == b
	}
	if err := quick.Check(f, qcfg(10000)); err != nil {
		t.Error(err)
	}
}

// TestQuickFormatParseRoundTrip: shortest decimal formatting
// round-trips arbitrary patterns.
func TestQuickFormatParseRoundTrip(t *testing.T) {
	t.Parallel()
	f := func(raw uint32) bool {
		b := uint64(raw)
		s := Format(Std32, b, 'g', -1)
		back, err := Parse(Std32, s)
		return err == nil && back == b
	}
	if err := quick.Check(f, qcfg(1500)); err != nil {
		t.Error(err)
	}
}

// TestQuickFieldsReassemble: decomposing a pattern into fields and
// re-assembling the payload bit spans reproduces the pattern.
func TestQuickFieldsReassemble(t *testing.T) {
	f := func(raw uint32) bool {
		b := uint64(raw)
		if b == 0 || b == Std32.NaR() {
			return true
		}
		fl := DecodeFields(Std32, b)
		// Rebuild: sign, run, terminator, exponent (only the ExpLen
		// physically-present MSBs), fraction.
		var re uint64
		if fl.Sign == 1 {
			re |= Std32.SignMask()
		}
		pos := Std32.N - 2
		runBit := uint64(0)
		if fl.R >= 0 {
			runBit = 1
		}
		for i := 0; i < fl.K; i++ {
			re |= runBit << uint(pos)
			pos--
		}
		if fl.RegimeLen > fl.K {
			re |= (1 - runBit) << uint(pos)
			pos--
		}
		exp := fl.Exp >> uint(Std32.ES-fl.ExpLen)
		for i := fl.ExpLen - 1; i >= 0; i-- {
			re |= (exp >> uint(i) & 1) << uint(pos)
			pos--
		}
		re |= fl.Frac
		return re == b
	}
	if err := quick.Check(f, qcfg(10000)); err != nil {
		t.Error(err)
	}
}
