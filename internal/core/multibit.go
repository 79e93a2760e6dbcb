package core

import (
	"fmt"
	"strconv"

	"positres/internal/bitflip"
	"positres/internal/numfmt"
	"positres/internal/qcat"
	"positres/internal/sdrbench"
	"positres/internal/stats"
)

// MultiTrial is one multi-bit fault injection — the paper's "multi-bit
// flip analysis would provide valuable insights" future-work item.
type MultiTrial struct {
	Field     string // dataset field key
	Codec     string // format name under test
	FlipCount int    // simultaneous bits flipped in this trial
	Seq       int    // trial sequence number

	Index     int     // element index chosen in the data
	OrigValue float64 // original data value
	Positions []int   // flipped bit positions, ascending
	FaultyVal float64 // decoded value after all flips

	// Errors and Catastrophic follow Trial's definitions (qcat.Point
	// against OrigValue).
	AbsErr       float64 // |OrigValue - FaultyVal|
	RelErr       float64 // AbsErr / |OrigValue|
	Catastrophic bool    // NaN/Inf/NaR, or a zero original made nonzero
}

// RunMultiBit injects `trials` faults of `flips` simultaneous bit
// flips each at uniformly random distinct positions, for the given
// codec and data. Deterministic in (cfg.Seed, field, codec, flips,
// seq), like the single-bit campaign.
func RunMultiBit(cfg Config, codec numfmt.Codec, fieldKey string, data []float64, flips, trials int) ([]MultiTrial, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("core: empty dataset for %s", fieldKey)
	}
	if flips < 1 || flips > codec.Width() {
		return nil, fmt.Errorf("core: flip count %d out of range [1,%d]", flips, codec.Width())
	}
	if cfg.MaxSelectAttempts <= 0 {
		cfg.MaxSelectAttempts = defaultMaxSelectAttempts
	}
	out := make([]MultiTrial, trials)
	for seq := range out {
		rng := sdrbench.NewRNG(cfg.Seed, fieldKey, codec.Name(),
			"multibit"+strconv.Itoa(flips), strconv.Itoa(seq))
		idx := rng.Intn(len(data))
		if cfg.SkipZeros {
			for attempt := 0; data[idx] == 0 && attempt < cfg.MaxSelectAttempts; attempt++ {
				idx = rng.Intn(len(data))
			}
		}
		orig := data[idx]
		bits := codec.Encode(orig)
		positions := randomDistinct(rng, codec.Width(), flips)
		faultyBits := bitflip.FlipMany(bits, positions...)
		faulty := codec.Decode(faultyBits)
		p := qcat.Point(orig, faulty)
		out[seq] = MultiTrial{
			Field: fieldKey, Codec: codec.Name(), FlipCount: flips, Seq: seq,
			Index: idx, OrigValue: orig, Positions: positions, FaultyVal: faulty,
			AbsErr: p.AbsErr, RelErr: p.RelErr, Catastrophic: p.Catastrophic,
		}
	}
	return out, nil
}

// randomDistinct draws k distinct positions in [0, width), in
// ascending order, from the deterministic sdrbench RNG.
func randomDistinct(rng *sdrbench.RNG, width, k int) []int {
	perm := make([]int, width)
	for i := range perm {
		perm[i] = i
	}
	for i := width - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	out := perm[:k]
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// MultiBitSummary aggregates multi-bit trials into the error profile
// reported by the extension bench: counts and relative-error
// statistics of the non-catastrophic population.
type MultiBitSummary struct {
	FlipCount    int     // simultaneous bits flipped per trial
	Trials       int     // trials aggregated
	Catastrophic int     // trials that decoded to NaN/Inf/NaR
	MeanRelErr   float64 // mean relative error, non-catastrophic trials
	MedianRelErr float64 // median relative error, non-catastrophic trials
	MaxRelErr    float64 // worst relative error, non-catastrophic trials
}

// SummarizeMulti reduces one multi-bit run.
func SummarizeMulti(trials []MultiTrial) MultiBitSummary {
	s := MultiBitSummary{}
	var rels []float64
	for _, tr := range trials {
		s.Trials++
		s.FlipCount = tr.FlipCount
		if tr.Catastrophic {
			s.Catastrophic++
			continue
		}
		rels = append(rels, tr.RelErr)
	}
	if len(rels) > 0 {
		s.MeanRelErr = stats.Mean(rels)
		s.MaxRelErr = stats.Max(rels)
		s.MedianRelErr = stats.Median(rels)
	}
	return s
}
