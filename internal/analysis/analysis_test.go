package analysis

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"maps"
	"math"
	"math/rand"
	"testing"

	"positres/internal/bitflip"
	"positres/internal/ieee754"
	"positres/internal/numfmt"
	"positres/internal/posit"
	"positres/internal/sdrbench"
)

// TestPredictionMatchesInjection: the analysis must agree with
// brute-force injection (flip + decode) — on every seventh posit16
// pattern at every position, and on sampled posit32 flips.
func TestPredictionMatchesInjection(t *testing.T) {
	cfg := posit.Std16
	codec := numfmt.NewPositCodec(cfg)
	for b := uint64(0); b <= cfg.Mask(); b += 7 { // stride keeps runtime sane
		for pos := 0; pos < cfg.N; pos++ {
			pf := Analyze(codec, b, pos)
			wantBits := bitflip.Flip(b, pos) & cfg.Mask()
			if pf.FaultyBits != wantBits {
				t.Fatalf("FaultyBits mismatch at %#x pos %d", b, pos)
			}
			wantVal := posit.DecodeFloat64(cfg, wantBits)
			if pf.FaultyVal != wantVal && !(math.IsNaN(pf.FaultyVal) && math.IsNaN(wantVal)) {
				t.Fatalf("FaultyVal mismatch at %#x pos %d: %v vs %v", b, pos, pf.FaultyVal, wantVal)
			}
		}
	}
	rng := rand.New(rand.NewSource(3))
	cfg = posit.Std32
	codec = numfmt.NewPositCodec(cfg)
	for i := 0; i < 20000; i++ {
		b := cfg.Canon(rng.Uint64())
		pos := rng.Intn(cfg.N)
		pf := Analyze(codec, b, pos)
		if pf.FaultyBits != bitflip.Flip(b, pos)&cfg.Mask() {
			t.Fatalf("FaultyBits mismatch at %#x pos %d", b, pos)
		}
	}
}

// TestClassification: directed checks of the §5 taxonomy.
func TestClassification(t *testing.T) {
	cfg := posit.Std32
	enc := func(x float64) uint64 { return posit.EncodeFloat64(cfg, x) }

	// 186250-scale value: regime "1110" (k=3). R_k is the 0 at
	// position 31-1-3 = 27.
	b := enc(186250)
	f := posit.DecodeFields(cfg, b)
	if f.K != 5 { // 186250 ≈ 2^17.5 → r=4, k=5
		t.Fatalf("K of 186250 = %d", f.K)
	}
	rkPos := cfg.N - 2 - f.K
	if got := Analyze(p32, b, rkPos).Class; got != ClassRegimeExpand {
		t.Errorf("R_k flip class = %v", got)
	}
	if got := Analyze(p32, b, cfg.N-2).Class; got != ClassRegimeInvert {
		t.Errorf("R_0 flip class = %v (k>1 should invert)", got)
	}
	if got := Analyze(p32, b, cfg.N-3).Class; got != ClassRegimeShrink {
		t.Errorf("R_1 flip class = %v", got)
	}
	if got := Analyze(p32, b, cfg.N-1).Class; got != ClassSign {
		t.Errorf("sign flip class = %v", got)
	}
	expPos := cfg.N - 2 - f.K - 1 // first exponent bit
	if got := Analyze(p32, b, expPos-1).Class; got != ClassExponent {
		t.Errorf("exponent flip class = %v", got)
	}
	if got := Analyze(p32, b, 0).Class; got != ClassFraction {
		t.Errorf("fraction flip class = %v", got)
	}

	// k=1 posit below one (e.g. 0.5 → regime "01"): flipping R_0 is
	// the invert-and-expand edge case of Fig. 15.
	b = enc(0.5)
	if posit.DecodeFields(cfg, b).K != 1 {
		t.Fatal("0.5 should have k=1")
	}
	if got := Analyze(p32, b, cfg.N-2).Class; got != ClassRegimeInvertExpand {
		t.Errorf("sole-run-bit flip class = %v", got)
	}

	// Special patterns.
	if got := Analyze(p32, 0, 5).Class; got != ClassFromZero {
		t.Errorf("flip of zero class = %v", got)
	}
	if got := Analyze(p32, cfg.NaR(), 5).Class; got != ClassFromNaR {
		t.Errorf("flip of NaR class = %v", got)
	}
	// Flipping the sign bit of zero yields NaR.
	if got := Analyze(p32, 0, cfg.N-1).Class; got != ClassFromZero {
		t.Errorf("sign flip of zero class = %v", got)
	}
	// +minpos's sign flip gives 0x80000001... flipping sign of
	// pattern 1 gives 0x80000001 (not NaR); but flipping the sole set
	// bit of minpos gives exactly zero.
	if got := Analyze(p32, 1, 0); got.FaultyBits != 0 || got.FaultyVal != 0 {
		t.Errorf("minpos LSB flip should produce zero: %+v", got)
	}
	// A pattern one bit away from NaR: flipping that bit → NaR.
	if got := Analyze(p32, cfg.NaR()|1, 0).Class; got != ClassToNaR {
		t.Errorf("to-NaR class = %v", got)
	}
}

// TestFig12RegimeExpansion reproduces the paper's Fig. 12: flipping
// R_k expands the regime into the exponent/fraction and scales the
// magnitude by ~2^(4n) for n new regime bits.
func TestFig12RegimeExpansion(t *testing.T) {
	cfg := posit.Std32
	// Build a posit > 1 whose exponent and fraction MSBs continue the
	// run when R_k flips: 0|110|11|11100... = value with r=1, e=3 and
	// fraction 0.111…; flipping R_k (the 0) gives run of 1s length 7.
	b := uint64(0)
	b |= 0b110 << 28          // regime k=2 occupying bits 30..28
	b |= 0b11 << 26           // exponent 3
	b |= 0b1110 << 22         // fraction MSBs continue the run after the flip
	pf := Analyze(p32, b, 28) // R_k at bit 28
	if pf.Class != ClassRegimeExpand {
		t.Fatalf("class %v", pf.Class)
	}
	if pf.FaultyK <= pf.RegimeK {
		t.Fatalf("regime did not expand: k %d -> %d", pf.RegimeK, pf.FaultyK)
	}
	// The magnitude scales by roughly useed^Δr; check the ratio lies
	// within the reinterpretation slack of the closed form.
	scale := RegimeExpansionScale(cfg, pf)
	ratio := math.Abs(pf.FaultyVal / pf.ReprValue)
	if ratio < scale/64 || ratio > scale*64 {
		t.Errorf("expansion ratio %g vs closed form %g", ratio, scale)
	}
	if pf.RelErr < 1000 {
		t.Errorf("R_k expansion should be catastropically large, rel err %g", pf.RelErr)
	}
}

// TestFig13ShrinkComparable reproduces Fig. 13's claim: absolute error
// from flipping R_0 vs R_{k-1} of a large posit is comparable (both
// collapse the magnitude, so |err| ≈ |orig|).
func TestFig13ShrinkComparable(t *testing.T) {
	cfg := posit.Std32
	b := posit.EncodeFloat64(cfg, 186250)
	k := posit.DecodeFields(cfg, b).K
	e0 := Analyze(p32, b, cfg.N-2)       // R_0
	eK := Analyze(p32, b, cfg.N-2-(k-1)) // R_{k-1}
	if e0.AbsErr == 0 || eK.AbsErr == 0 {
		t.Fatal("expected nonzero errors")
	}
	ratio := e0.AbsErr / eK.AbsErr
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("R_0 vs R_{k-1} abs err ratio %g, expected comparable", ratio)
	}
	// Both are ≈ the original magnitude (the faulty value is tiny).
	if math.Abs(e0.AbsErr-186250)/186250 > 0.1 {
		t.Errorf("R_0 abs err %g should approximate |orig|", e0.AbsErr)
	}
}

// TestFig15InvertExpandSpike: the k=1 below-one edge case produces
// enormous ABSOLUTE error (the paper reports up to 1e11) even though
// most below-one flips are mild.
func TestFig15InvertExpandSpike(t *testing.T) {
	// A value just below 1 with k=1 and a fraction of mostly 1s, so
	// the inverted regime extends deep: 0|01|11|1111... flips R_0 →
	// 0|11|11|1111...: run of many 1s → huge positive regime.
	b := uint64(0)
	b |= 0b01 << 29
	b |= 0b11 << 27
	b |= (uint64(1) << 27) - 1 // all fraction (and exponent) bits set
	pf := Analyze(p32, b, 30)
	if pf.Class != ClassRegimeInvertExpand {
		t.Fatalf("class %v", pf.Class)
	}
	if pf.ReprValue >= 1 || pf.ReprValue <= 0 {
		t.Fatalf("old value %g should be in (0,1)", pf.ReprValue)
	}
	if pf.AbsErr < 1e11 {
		t.Errorf("invert-expand abs err %g, paper reports spikes ≥ 1e11", pf.AbsErr)
	}
}

// TestFig19SignFlipVsNegation: flipping the sign bit is NOT negation
// (negation is two's complement), §5.7 / Fig. 19.
func TestFig19SignFlipVsNegation(t *testing.T) {
	cfg := posit.Std32
	b := posit.EncodeFloat64(cfg, 186.25)
	flip := Analyze(p32, b, cfg.N-1)
	if flip.FaultyVal == -flip.ReprValue {
		t.Error("sign flip behaved like negation")
	}
	neg := cfg.Negate(b)
	if posit.DecodeFloat64(cfg, neg) != -186.25 {
		t.Error("two's complement should negate")
	}
	// Magnitude changed (Fig. 21): for |v| away from 1 the exponent
	// term flips sign, giving a drastic magnitude change.
	if math.Abs(math.Abs(flip.FaultyVal)-186.25) < 1 {
		t.Errorf("sign flip should change magnitude: %g -> %g", flip.ReprValue, flip.FaultyVal)
	}
}

// TestSignFlipErrorGrowsWithRegime (Fig. 20 mechanism): the absolute
// sign-flip error grows exponentially with regime size.
func TestSignFlipErrorGrowsWithRegime(t *testing.T) {
	cfg := posit.Std32
	var prev float64
	for k := 1; k <= 6; k++ {
		// A value with regime run k: scale 4(k-1) for k>=1 above one.
		v := math.Ldexp(1.3, 4*(k-1))
		b := posit.EncodeFloat64(cfg, v)
		if got := posit.DecodeFields(cfg, b).K; got != k {
			t.Fatalf("constructed k=%d, got %d", k, got)
		}
		pf := Analyze(p32, b, cfg.N-1)
		if k > 1 && pf.AbsErr <= prev {
			t.Errorf("sign-flip abs err not growing at k=%d: %g <= %g", k, pf.AbsErr, prev)
		}
		prev = pf.AbsErr
	}
}

// TestIEEEFlipAnalysis: the analysis of an IEEE flip agrees with the
// Elliott closed form in scope and detects catastrophes.
func TestIEEEFlipAnalysis(t *testing.T) {
	f := ieee754.Binary32
	b := f.Encode(186.25)
	sweep := Sweep(mustLookup("ieee32"), b)
	if len(sweep) != 32 {
		t.Fatal("sweep length")
	}
	for _, fl := range sweep {
		if pred := f.TheoreticalRelError(b, fl.Pos); !math.IsNaN(pred) && !fl.Catastrophic {
			if math.Abs(pred-fl.RelErr) > 1e-9*math.Max(1, fl.RelErr) {
				t.Errorf("pos %d: predicted %g measured %g", fl.Pos, pred, fl.RelErr)
			}
		}
	}
	if sweep[31].FieldName != "sign" || sweep[31].RelErr != 2 {
		t.Error("sign flip should be rel err 2")
	}
	// Flipping the top exponent bit of a value with exp ≥ 0x80 halves
	// the exponent; for values with exp < 0x80 it overflows to the
	// 0xFF region only if remaining bits are all ones. For 186.25 no
	// flip is catastrophic.
	for _, fl := range sweep {
		if fl.Catastrophic {
			t.Errorf("unexpected catastrophic flip at pos %d", fl.Pos)
		}
	}
	// NaN production: exponent 0xFE + fraction ≠ 0, flip exp LSB.
	fl := Analyze(mustLookup("ieee32"), f.Encode(math.MaxFloat32), 23)
	if !fl.Catastrophic || fl.Class != Class(ieee754.OutcomeNaN.String()) {
		t.Errorf("MaxFloat32 exp flip: %+v", fl)
	}
}

// TestSweepPositFlips covers Sweep on a posit pattern, and the masking
// of bits above the codec width.
func TestSweepPositFlips(t *testing.T) {
	cfg := posit.Std16
	b := posit.EncodeFloat64(cfg, 12.5)
	sweep := Sweep(mustLookup("posit16"), b|1<<20)
	if len(sweep) != 16 {
		t.Fatal("sweep length")
	}
	for pos, pf := range sweep {
		if pf.Pos != pos || pf.Bits != b || pf.ReprValue != 12.5 {
			t.Fatal("sweep bookkeeping")
		}
	}
}

func TestRegimeHistogram(t *testing.T) {
	cfg := posit.Std32
	data := []float64{1, 1.5, 16, 256, 0, math.NaN(), math.Inf(1), -0.5}
	h := RegimeHistogram(cfg, data)
	// 1 and 1.5: k=1; -0.5: k=1; 16: k=2; 256: r=2 → k=3.
	if h[1] != 3 || h[2] != 1 || h[3] != 1 {
		t.Errorf("histogram: %v", h)
	}
	total := 0
	for _, c := range h {
		total += c
	}
	if total != 5 { // zero/NaN/Inf skipped
		t.Errorf("total %d", total)
	}
}

func TestSpreadOf(t *testing.T) {
	h := map[int]int{1: 90, 2: 9, 5: 1}
	s := SpreadOf(h, 0.05)
	if s.Distinct != 2 || s.MaxK != 5 {
		t.Errorf("spread: %+v", s)
	}
	wantMean := (90*1 + 9*2 + 1*5) / 100.0
	if math.Abs(s.MeanK-wantMean) > 1e-12 {
		t.Errorf("meanK %v", s.MeanK)
	}
	if SpreadOf(nil, 0.1).Distinct != 0 {
		t.Error("empty spread")
	}
}

// TestRegimeSpreadPaperClaim: §5.4.3 — datasets with large variances
// and medians (Nyx) carry "more values with larger numbers of regime
// bits" than narrow sub-unit datasets (CESM CLOUD), so their R_k error
// spikes sit at lower bit positions.
func TestRegimeSpreadPaperClaim(t *testing.T) {
	gen := func(key string) []float64 {
		f, err := sdrbench.Lookup(key)
		if err != nil {
			t.Fatal(err)
		}
		return sdrbench.ToFloat64(f.Generate(50000, 1))
	}
	nyx := SpreadOf(RegimeHistogram(posit.Std32, gen("Nyx/velocity-x")), 0.01)
	cloud := SpreadOf(RegimeHistogram(posit.Std32, gen("CESM/CLOUD")), 0.01)
	if !(nyx.MeanK > cloud.MeanK+1) {
		t.Errorf("Nyx mean regime size (%v) should exceed CESM/CLOUD's (%v) by >1", nyx.MeanK, cloud.MeanK)
	}
	if !(nyx.MaxK > cloud.MaxK) {
		t.Errorf("Nyx max regime %d should exceed CLOUD's %d", nyx.MaxK, cloud.MaxK)
	}
}

// classSpaceDigests pins the analysis of every (pattern, bit) pair of
// six formats narrow enough to enumerate. Each digest is the SHA-256 of
// the rows appendClassRow writes in (pattern, bit) order; the posit8
// and posit16 pins also hold the per-class counts. The digests and
// counts were computed through the earlier per-format analysis (one
// type and entry point for posits, one for IEEE formats, each decoding
// both patterns itself), before the analysis moved onto
// core.Deriver.FromPattern.
var classSpaceDigests = []struct {
	name   string
	codec  numfmt.Codec
	digest string
	counts map[string]int // per-class pair counts; nil when not pinned
}{
	{"posit8", mustLookup("posit8"), "8c73ef011b8df053074169938d823cd55f5149283066473083586566b3616447", map[string]int{
		"sign": 254, "regime-expand": 246, "regime-shrink": 240, "regime-invert": 126,
		"regime-invert-expand": 127, "exponent": 488, "fraction": 544,
		"to-NaR": 7, "from-NaR": 8, "from-zero": 8,
	}},
	{"posit16", mustLookup("posit16"), "c5be86d8eca87c89f0d136b5b6553d020f562961bc9f2523f63c86bc370f2a82", map[string]int{
		"sign": 65534, "regime-expand": 65518, "regime-shrink": 65504, "regime-invert": 32766,
		"regime-invert-expand": 32767, "exponent": 131048, "fraction": 655392,
		"to-NaR": 15, "from-NaR": 16, "from-zero": 16,
	}},
	{"posit8es0", numfmt.NewPositCodec(posit.Config{N: 8, ES: 0}), "1750cae660022ad899b6581e7de9e9ce93597375484d2062e2b2e60463e9573e", nil},
	{"posit12es3", numfmt.NewPositCodec(posit.Config{N: 12, ES: 3}), "d8758890159ff24b967cfe94ec9797ad16cf8c01610cfb9d23bd6dbe7faa8c8d", nil},
	{"ieee16", mustLookup("ieee16"), "9e63c0fadb1ca137d120e31ac585dad24e331be75b68a0aa182fe1bc087fb927", nil},
	{"bfloat16", mustLookup("bfloat16"), "c11b1f95ce75d9204f798627bbd1336ff2278901c61c3cbeda45146c02c389b3", nil},
}

// p32 is the posit32 codec most directed checks flip.
var p32 = mustLookup("posit32")

func mustLookup(name string) numfmt.Codec {
	c, err := numfmt.Lookup(name)
	if err != nil {
		panic(err)
	}
	return c
}

// appendClassRow appends one canonical row for the flip of bit in
// pattern: the class (u8 length + bytes) and, for a posit, the flipped
// pattern's regime run length k and the regime value change Δr (i64le
// each). It returns the row and the class.
func appendClassRow(dst []byte, codec numfmt.Codec, pattern uint64, bit int) ([]byte, string) {
	f := Analyze(codec, pattern, bit)
	dst = append(dst, byte(len(f.Class)))
	dst = append(dst, f.Class...)
	if _, ok := codec.(*numfmt.PositCodec); ok {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(f.FaultyK)))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(f.RegimeDelta)))
	}
	return dst, string(f.Class)
}

// TestClassSpacePinned analyzes every (pattern, bit) pair of posit8,
// posit16, posit<8,0>, posit<12,3>, ieee16 and bfloat16 and compares
// each format's row digest, and for posit8 and posit16 its per-class
// counts, with the pins.
func TestClassSpacePinned(t *testing.T) {
	for _, pin := range classSpaceDigests {
		t.Run(pin.name, func(t *testing.T) {
			w := pin.codec.Width()
			h := sha256.New()
			counts := map[string]int{}
			var row []byte
			var class string
			for pattern := uint64(0); pattern < 1<<uint(w); pattern++ {
				for bit := 0; bit < w; bit++ {
					row, class = appendClassRow(row[:0], pin.codec, pattern, bit)
					h.Write(row)
					counts[class]++
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != pin.digest {
				t.Errorf("class-space digest %s, pinned %s", got, pin.digest)
			}
			if pin.counts != nil && !maps.Equal(counts, pin.counts) {
				t.Errorf("per-class counts %v, pinned %v", counts, pin.counts)
			}
		})
	}
}
