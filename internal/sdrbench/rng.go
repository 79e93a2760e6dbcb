// Package sdrbench generates deterministic synthetic stand-ins for
// the SDRBench scientific datasets the paper injects faults into
// (CESM, EXAFEL, HACC, Hurricane Isabel, Nyx — Table 1), and reads and
// writes them in the raw little-endian float32 layout the paper's
// campaign loads ("reads a binary file containing a field ... into an
// array").
//
// The generators are tuned per field so the summary statistics the
// paper reports (mean, median, max, min, standard deviation) are
// matched in magnitude and sign structure. Bit-flip sensitivity at
// each position depends only on the value distribution — the
// magnitudes (which set posit regime sizes), the sign mix and the zero
// mass — so matching those moments preserves the behaviour the
// experiments measure. Physical content is irrelevant and not
// modelled; see DESIGN.md §2.
package sdrbench

import (
	"math"
	"math/bits"
)

// RNG is a self-contained xoshiro256** generator. It is deterministic
// across platforms and Go releases (unlike math/rand's default
// source), which makes every campaign reproducible bit-for-bit from
// its seed, strengthening the paper's "seed the random number
// generator for reproducibility" step.
type RNG struct {
	s [4]uint64
}

// splitmix64 is the stream initializer recommended for xoshiro.
func splitmix64(x *uint64) uint64 {
	*x += 0x9E3779B97F4A7C15
	z := *x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// NewRNG derives an independent stream from a seed and a sequence of
// labels (field name, codec, bit position, ...). Streams with
// different labels are statistically independent.
func NewRNG(seed uint64, labels ...string) *RNG {
	r := RNGFromHash(seed, NewLabelHash(labels...))
	return &r
}

// LabelHash is the label-mixing state NewRNG folds its labels into —
// an FNV-1a accumulator with a 0xFF separator after each label. It is
// exposed so hot loops can precompute the hash of their fixed label
// prefix once and derive per-trial streams without re-hashing (or
// allocating) the prefix strings on every draw:
//
//	base := NewLabelHash(field, codec, bitLabel)
//	for seq := 0; seq < n; seq++ {
//		rng := RNGFromHash(seed, base.WithInt(seq)) // zero allocations
//	}
//
// The derived stream is bit-identical to NewRNG with the equivalent
// flat label list; TestLabelHashEquivalence pins this, because every
// journaled campaign replays through these streams.
type LabelHash uint64

// fnvOffset/fnvPrime are the standard 64-bit FNV-1a parameters.
const (
	fnvOffset = 1469598103934665603
	fnvPrime  = 1099511628211
)

// NewLabelHash folds labels into a fresh accumulator.
func NewLabelHash(labels ...string) LabelHash {
	h := LabelHash(fnvOffset)
	for _, l := range labels {
		h = h.WithLabel(l)
	}
	return h
}

// WithLabel returns the hash extended by one label (value semantics:
// the receiver is unchanged, so a prefix can be reused).
func (h LabelHash) WithLabel(l string) LabelHash {
	x := uint64(h)
	for i := 0; i < len(l); i++ {
		x ^= uint64(l[i])
		x *= fnvPrime
	}
	x ^= 0xFF // label separator
	x *= fnvPrime
	return LabelHash(x)
}

// WithInt extends the hash exactly as WithLabel(strconv.Itoa(n))
// would, without materializing the string. Campaign hot loops use it
// for the per-trial sequence label.
func (h LabelHash) WithInt(n int) LabelHash {
	var buf [20]byte // enough for -9223372036854775808
	i := len(buf)
	u := uint64(n)
	if n < 0 {
		u = uint64(-n)
	}
	for {
		i--
		buf[i] = byte('0' + u%10)
		u /= 10
		if u == 0 {
			break
		}
	}
	if n < 0 {
		i--
		buf[i] = '-'
	}
	x := uint64(h)
	for ; i < len(buf); i++ {
		x ^= uint64(buf[i])
		x *= fnvPrime
	}
	x ^= 0xFF // label separator
	x *= fnvPrime
	return LabelHash(x)
}

// RNGFromHash seeds a generator from a precomputed label hash. It
// returns the RNG by value so callers in hot loops keep it on the
// stack; the stream is identical to NewRNG with the same seed and the
// labels folded into h.
func RNGFromHash(seed uint64, h LabelHash) RNG {
	x := seed ^ uint64(h)
	var r RNG
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// A state of all zeros is invalid for xoshiro.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9E3779B97F4A7C15
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 random bits (xoshiro256**).
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1) with 53 random bits.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sdrbench: Intn with non-positive n")
	}
	for {
		if v, ok := lemire(r.Uint64(), uint64(n)); ok {
			return v
		}
	}
}

// FirstIntn returns RNGFromHash(seed, h).Intn(n) and true when that
// call's first 64-bit draw is accepted, and false when it is rejected
// (the caller then runs the full stream). It computes only what the
// first draw depends on: xoshiro256**'s first output is
// rotl(s[1]*5, 7)*9, and s[1] is the second splitmix64 output, so one
// splitmix64 round yields it. The all-zero-state fix touches only
// s[0], so it cannot change that output. It panics if n <= 0.
func FirstIntn(seed uint64, h LabelHash, n int) (int, bool) {
	if n <= 0 {
		panic("sdrbench: FirstIntn with non-positive n")
	}
	x := (seed ^ uint64(h)) + 0x9E3779B97F4A7C15 // s[0]'s round advances x only
	return lemire(rotl(splitmix64(&x)*5, 7)*9, uint64(n))
}

// lemire is the accept step of Lemire's unbiased multiply-shift
// method: the value in [0, n) of one 64-bit draw x, and whether x is
// accepted. The rejection threshold (-n) % n is below n, so the
// division runs only when the low product word is too.
func lemire(x, n uint64) (int, bool) {
	hi, lo := bits.Mul64(x, n)
	if lo < n && lo < (-n)%n {
		return 0, false
	}
	return int(hi), true
}

// NormFloat64 returns a standard normal variate (Marsaglia polar).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// ExpFloat64 returns an Exp(1) variate via inversion.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// LogNormal returns a lognormal variate with the given log-space
// location and scale: exp(mu + sigma·N).
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}
