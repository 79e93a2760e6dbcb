package posit

// Equivalence of the one-count field layout and the straight-line
// assemble with the implementations they replaced (ref_test.go), and
// the posit64 rounding case the old assemble got wrong.

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// checkLayout compares FieldAndRegimeK at one (pattern, position) with
// refFieldAt and refDecodeFields' K.
func checkLayout(t *testing.T, cfg Config, b uint64, pos int) {
	t.Helper()
	f, k := FieldAndRegimeK(cfg, b, pos)
	if want, wantK := refFieldAt(cfg, b, pos), refDecodeFields(cfg, b).K; f != want || k != wantK {
		t.Fatalf("%v: FieldAndRegimeK(%#x, %d) = (%v, %d), reference (%v, %d)", cfg, b, pos, f, k, want, wantK)
	}
}

// panics reports whether fn panics.
func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}

// TestFieldAndRegimeKExhaustive checks every (pattern, position) pair
// of every configuration with N <= 16 and ES 0–4, zero and NaR
// included, and that both functions refuse the positions just outside
// the pattern.
func TestFieldAndRegimeKExhaustive(t *testing.T) {
	for n := 2; n <= 16; n++ {
		for es := 0; es <= 4; es++ {
			cfg := Config{N: n, ES: es}
			for b := uint64(0); b < 1<<uint(n); b++ {
				for pos := 0; pos < n; pos++ {
					checkLayout(t, cfg, b, pos)
				}
			}
			for _, pos := range []int{-1, n} {
				if !panics(func() { FieldAndRegimeK(cfg, 1, pos) }) || !panics(func() { refFieldAt(cfg, 1, pos) }) {
					t.Fatalf("%v: position %d accepted", cfg, pos)
				}
			}
		}
	}
}

// samplePattern draws a uniform 64-bit word, whose bits above N are
// garbage every reader of the pattern must ignore. With longRun set,
// the top of the payload becomes a regime run of uniform length, which
// uniform patterns almost never have.
func samplePattern(rng *rand.Rand, cfg Config, longRun bool) uint64 {
	b := rng.Uint64()
	if longRun {
		// Set the top run bits of the payload equal to its first bit.
		run := uint(1 + rng.Intn(cfg.N-1))
		top := uint(cfg.N - 1) // first bit past the payload
		runMask := (uint64(1)<<run - 1) << (top - run)
		if b>>(top-1)&1 == 1 {
			b |= runMask
		} else {
			b &^= runMask
		}
	}
	return b
}

// TestFieldAndRegimeKSampled checks 10⁶ sampled pairs of each wide
// posit codec the campaign runs, half of them with long regime runs.
func TestFieldAndRegimeKSampled(t *testing.T) {
	for _, cfg := range []Config{Std32, Std64, {N: 32, ES: 0}, {N: 32, ES: 1}, {N: 32, ES: 3}} {
		rng := rand.New(rand.NewSource(int64(cfg.N*8 + cfg.ES)))
		for i := 0; i < 1_000_000; i++ {
			checkLayout(t, cfg, samplePattern(rng, cfg, i%2 == 1), rng.Intn(cfg.N))
		}
	}
}

// TestAssembleMatchesReference compares assemble with refAssemble for
// every configuration and every scale h from -maxScale-2 to
// maxScale+2 (both saturations included). For tails whose low 12 bits
// are zero — every tail a float64 encode produces — the two agree.
// For tails with low bits set they differ only where refAssemble
// dropped a set bit past the 128-bit stream: assemble then equals
// refAssemble with that bit counted as sticky.
func TestAssembleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for n := 2; n <= 64; n++ {
		for es := 0; es <= 4; es++ {
			cfg := Config{N: n, ES: es}
			ms := cfg.MaxScale()
			for h := -ms - 2; h <= ms+2; h++ {
				dropped := uint64(0) // stream bits refAssemble loses past 128
				if h >= -ms && h < ms {
					r := h >> uint(es)
					run := r + 2
					if r < 0 {
						run = 1 - r
					}
					if over := run + es + 64 - 128; over > 0 {
						dropped = maskN(over)
					}
				}
				tails := []uint64{0, 1 << 63, 1 << 12, 1<<64 - 1<<12, rng.Uint64() << 12, rng.Uint64() << 12}
				for _, tail := range tails {
					for _, s := range []bool{false, true} {
						if got, want := assemble(cfg, h, tail, s), refAssemble(cfg, h, tail, s); got != want {
							t.Fatalf("%v h=%d tail=%#x sticky=%v: assemble %#x, reference %#x", cfg, h, tail, s, got, want)
						}
					}
				}
				for _, tail := range []uint64{1, 7, ^uint64(0), rng.Uint64(), rng.Uint64() | 1} {
					for _, s := range []bool{false, true} {
						got := assemble(cfg, h, tail, s)
						if want := refAssemble(cfg, h, tail, s || tail&dropped != 0); got != want {
							t.Fatalf("%v h=%d tail=%#x sticky=%v: assemble %#x, reference with dropped bits as sticky %#x", cfg, h, tail, s, got, want)
						}
					}
				}
			}
		}
	}
}

// TestPosit64RoundsPastStreamEnd: 2^246 sits halfway between the
// posit64 patterns 0x7ffffffffffffffe (2^244, regime 61, no exponent
// or fraction bit left) and maxpos (2^248). Anything above it must
// round up. With 63 regime bits, 2 exponent bits and a 64-bit tail,
// the bit for 2^182 is the 129th of the stream; a 128-bit stream that
// drops it rounds 2^246 + 2^182 to even, down to 2^244. Each value
// goes through Parse and through a quire holding 4·2^244 plus the low
// term.
func TestPosit64RoundsPastStreamEnd(t *testing.T) {
	const below = 0x7ffffffffffffffe // 2^244
	maxpos := Std64.MaxPosBits()
	for _, c := range []struct {
		low  int // exponent of the term added to 2^246; 0 for none
		want uint64
	}{
		{0, below}, // the tie rounds to even
		{182, maxpos},
		{170, maxpos},
		{183, maxpos},
	} {
		t.Run(fmt.Sprintf("2^246+2^%d", c.low), func(t *testing.T) {
			v := new(big.Int).Lsh(big.NewInt(1), 246)
			q := NewQuire(Std64)
			for i := 0; i < 4; i++ {
				q.AddPosit(below)
			}
			if c.low != 0 {
				v.Add(v, new(big.Int).Lsh(big.NewInt(1), uint(c.low)))
				term := EncodeFloat64(Std64, math.Ldexp(1, c.low))
				if DecodeFloat64(Std64, term) != math.Ldexp(1, c.low) {
					t.Fatalf("2^%d is not a posit64", c.low)
				}
				q.AddPosit(term)
			}
			got, err := Parse(Std64, v.String())
			if err != nil || got != c.want {
				t.Errorf("Parse = %#x (%v), want %#x", got, err, c.want)
			}
			if got := q.ToPosit(); got != c.want {
				t.Errorf("Quire.ToPosit = %#x, want %#x", got, c.want)
			}
		})
	}
}
