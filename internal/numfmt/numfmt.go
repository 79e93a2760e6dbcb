// Package numfmt defines the number-format codec abstraction that the
// fault-injection campaign is generic over. A Codec maps float64
// values to N-bit patterns and back, and attributes each bit position
// to a named field — the two operations the paper performs on both
// IEEE-754 floats (via type punning) and posits (via SoftPosit).
package numfmt

import (
	"fmt"
	"sort"
	"strings"

	"positres/internal/ieee754"
	"positres/internal/posit"
)

// Codec converts between float64 values and fixed-width bit patterns.
// Implementations must be stateless and safe for concurrent use.
type Codec interface {
	// Name is the registry key, e.g. "posit32" or "ieee32".
	Name() string
	// Width is the pattern width in bits (<= 64).
	Width() int
	// Encode rounds x to the nearest representable pattern.
	Encode(x float64) uint64
	// Decode interprets a pattern; NaN for NaN/Inf/NaR patterns.
	Decode(bits uint64) float64
	// FieldAt names the field owning bit position pos (0 = LSB) in the
	// given pattern: "sign", "regime", "exponent" or "fraction". For
	// IEEE formats the answer is independent of the pattern.
	FieldAt(bits uint64, pos int) string
	// IsSpecial reports whether the pattern encodes NaN, ±Inf or NaR.
	IsSpecial(bits uint64) bool
}

// RegimeSizer is implemented by posit codecs, whose field boundaries
// move with the pattern: it exposes the regime run length k (paper
// eq. 1) used to bucket campaign results.
type RegimeSizer interface {
	// RegimeK returns k of the pattern (0 for zero and NaR).
	RegimeK(bits uint64) int
	// FieldAndRegimeK returns FieldAt(bits, pos) and RegimeK(bits)
	// from one decomposition of the pattern; core.Deriver derives
	// every posit trial with this one call.
	FieldAndRegimeK(bits uint64, pos int) (string, int)
}

// PositCodec adapts a posit configuration to the Codec interface.
type PositCodec struct {
	Cfg   Config // posit configuration (width, es) being adapted
	label string
}

// Config re-exports posit.Config so campaign code can construct custom
// (legacy-es) posit codecs without importing the posit package.
type Config = posit.Config

// NewPositCodec returns a codec for an arbitrary posit configuration.
func NewPositCodec(cfg Config) *PositCodec {
	label := fmt.Sprintf("posit%d", cfg.N)
	if cfg.ES != 2 {
		label = fmt.Sprintf("posit%des%d", cfg.N, cfg.ES)
	}
	return &PositCodec{Cfg: cfg, label: label}
}

// Name implements Codec.
func (c *PositCodec) Name() string { return c.label }

// Width implements Codec.
func (c *PositCodec) Width() int { return c.Cfg.N }

// Encode implements Codec.
func (c *PositCodec) Encode(x float64) uint64 { return posit.EncodeFloat64(c.Cfg, x) }

// Decode implements Codec.
func (c *PositCodec) Decode(b uint64) float64 { return posit.DecodeFloat64(c.Cfg, b) }

// FieldAt implements Codec.
func (c *PositCodec) FieldAt(b uint64, pos int) string {
	return posit.FieldAt(c.Cfg, b, pos).String()
}

// IsSpecial implements Codec (only NaR is special for posits).
func (c *PositCodec) IsSpecial(b uint64) bool { return c.Cfg.Canon(b) == c.Cfg.NaR() }

// RegimeK implements RegimeSizer.
func (c *PositCodec) RegimeK(b uint64) int {
	_, k := posit.FieldAndRegimeK(c.Cfg, b, c.Cfg.N-1)
	return k
}

// FieldAndRegimeK implements RegimeSizer.
func (c *PositCodec) FieldAndRegimeK(b uint64, pos int) (string, int) {
	f, k := posit.FieldAndRegimeK(c.Cfg, b, pos)
	return f.String(), k
}

// IEEECodec adapts an IEEE-754 format to the Codec interface.
type IEEECodec struct {
	Fmt ieee754.Format // the IEEE format being adapted
}

// Name implements Codec.
func (c *IEEECodec) Name() string { return c.Fmt.Name }

// Width implements Codec.
func (c *IEEECodec) Width() int { return c.Fmt.Width() }

// Encode implements Codec.
func (c *IEEECodec) Encode(x float64) uint64 { return c.Fmt.Encode(x) }

// Decode implements Codec. Inf decodes to ±Inf (kept, so error metrics
// can classify it as catastrophic).
func (c *IEEECodec) Decode(b uint64) float64 { return c.Fmt.Decode(b) }

// FieldAt implements Codec; the layout is static for IEEE formats.
func (c *IEEECodec) FieldAt(_ uint64, pos int) string { return c.Fmt.FieldAt(pos).String() }

// IsSpecial implements Codec.
func (c *IEEECodec) IsSpecial(b uint64) bool { return c.Fmt.IsNaN(b) || c.Fmt.IsInf(b) }

// registry maps codec names to constructors (codecs are stateless, so
// shared instances are fine).
var registry = map[string]Codec{}

func register(c Codec) { registry[c.Name()] = c }

func init() {
	register(NewPositCodec(posit.Std8))
	register(NewPositCodec(posit.Std16))
	register(NewPositCodec(posit.Std32))
	register(NewPositCodec(posit.Std64))
	// Legacy exponent sizes for the es ablation.
	register(NewPositCodec(Config{N: 32, ES: 0}))
	register(NewPositCodec(Config{N: 32, ES: 1}))
	register(NewPositCodec(Config{N: 32, ES: 3}))
	register(&IEEECodec{Fmt: ieee754.Binary16})
	register(&IEEECodec{Fmt: ieee754.BFloat16})
	register(&IEEECodec{Fmt: ieee754.Binary32})
	register(&IEEECodec{Fmt: ieee754.Binary64})
}

// Lookup returns the codec registered under name.
func Lookup(name string) (Codec, error) {
	c, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("numfmt: unknown format %q (known: %s)", name, strings.Join(Names(), ", "))
	}
	return c, nil
}

// Names returns all registered codec names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
