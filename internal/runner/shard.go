package runner

import (
	"fmt"
	"strings"

	"positres/internal/core"
)

// Spec is one (field, codec) campaign of a sweep, expressed with
// registry names instead of live values so it serializes into the
// manifest and journal.
type Spec struct {
	Field string `json:"field"` // sdrbench key, e.g. "CESM/CLOUD"
	Codec string `json:"codec"` // numfmt name, e.g. "posit32"
	N     int    `json:"n"`     // synthetic elements to generate
	Seed  uint64 `json:"seed"`  // data-generation seed
}

// Key returns the canonical "Field codec" identity of the spec.
func (s Spec) Key() string { return s.Field + " " + s.Codec }

// Shard is the unit of durable progress: one spec restricted to a bit
// range [BitLo, BitHi). Because core's PRNG streams are keyed by
// (seed, field, codec, bit, trial), a shard's trials are identical
// whether computed inside a full campaign or in isolation after a
// restart — the property TestResumeEquivalence pins.
type Shard struct {
	Spec
	BitLo int `json:"bit_lo"` // first bit position covered (inclusive)
	BitHi int `json:"bit_hi"` // one past the last bit position (exclusive)
}

// ID returns the shard's stable, filesystem-safe identifier, used as
// the journal record filename and in the manifest.
func (s Shard) ID() string {
	field := strings.NewReplacer("/", "_", " ", "_").Replace(s.Field)
	return fmt.Sprintf("%s.%s.b%02d-%02d", field, s.Codec, s.BitLo, s.BitHi)
}

// shardsFor splits a spec's bit space [0, width) into consecutive
// ranges of at most bitsPerShard bits.
func shardsFor(spec Spec, width, bitsPerShard int) []Shard {
	var out []Shard
	for lo := 0; lo < width; lo += bitsPerShard {
		hi := lo + bitsPerShard
		if hi > width {
			hi = width
		}
		out = append(out, Shard{Spec: spec, BitLo: lo, BitHi: hi})
	}
	return out
}

// campaignParams is the subset of core.Config that defines campaign
// identity: two runs agree bit-for-bit iff these match (worker count
// and scheduling deliberately excluded — they do not affect results).
type campaignParams struct {
	Seed              uint64 `json:"seed"`
	TrialsPerBit      int    `json:"trials_per_bit"`
	SkipZeros         bool   `json:"skip_zeros"`
	MaxSelectAttempts int    `json:"max_select_attempts"`
}

func paramsOf(cfg core.Config) campaignParams {
	return campaignParams{
		Seed:              cfg.Seed,
		TrialsPerBit:      cfg.TrialsPerBit,
		SkipZeros:         cfg.SkipZeros,
		MaxSelectAttempts: cfg.MaxSelectAttempts,
	}
}
