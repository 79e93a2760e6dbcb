// Package core implements the paper's primary contribution: the
// bit-flip fault-injection campaign of §4. A campaign runs a series of
// trials for every bit position of a number format; each trial picks a
// random element of a scientific dataset, encodes it in the format
// under test, flips one bit with an XOR mask, decodes the corrupted
// pattern, and records error metrics against the original data.
//
// The engine is deterministic: every random choice is drawn from a
// dedicated PRNG stream keyed by (seed, field, codec, bit, trial), so
// results are bit-for-bit reproducible at any worker count — a
// stronger property than the paper's single seeded generator.
package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"
	"time"

	"positres/internal/numfmt"
	"positres/internal/sdrbench"
	"positres/internal/spec"
	"positres/internal/stats"
	"positres/internal/telemetry"
)

// Config parameterizes a campaign.
type Config struct {
	// Seed drives every random choice. Campaigns with equal seeds and
	// inputs produce identical results.
	Seed uint64
	// TrialsPerBit is the number of injections per bit position; the
	// paper uses 313 (~10,000 per 32-bit format per field).
	TrialsPerBit int
	// Workers bounds the goroutine pool; 0 means GOMAXPROCS.
	Workers int
	// SkipZeros excludes exactly-zero elements from selection (their
	// relative error is undefined; the paper's plotted fields carry
	// negligible zero mass). When false, zero selections are injected
	// and recorded as catastrophic.
	SkipZeros bool
	// MaxSelectAttempts bounds the zero-rejection loop per trial;
	// zero or less means defaultMaxSelectAttempts.
	MaxSelectAttempts int
	// Metrics, when non-nil, receives injection and bit-completion
	// counts as the campaign runs (telemetry.Snapshot derives
	// injections/sec from them). It never affects results and is
	// deliberately excluded from the runner's campaign identity
	// (campaignParams), like Workers.
	Metrics *telemetry.Metrics
}

// defaultMaxSelectAttempts is the zero-rejection bound DefaultConfig
// sets and the engines fall back to when a Config leaves it unset.
const defaultMaxSelectAttempts = 64

// DefaultConfig mirrors the paper's campaign parameters.
func DefaultConfig() Config {
	return Config{
		Seed:              1,
		TrialsPerBit:      313,
		SkipZeros:         true,
		MaxSelectAttempts: defaultMaxSelectAttempts,
	}
}

// ConfigFromSpec derives the engine configuration from the canonical
// campaign spec — the one place the two vocabularies meet, so the
// CLI, the HTTP service and the durable runner cannot drift apart.
// Unset spec knobs are already defaulted by spec.Validate; the engine
// defaults that have no spec-level knob (MaxSelectAttempts) come from
// DefaultConfig. Workers and Metrics are runtime concerns, not
// campaign identity; callers set them on the returned Config.
func ConfigFromSpec(s *spec.CampaignSpec) Config {
	cfg := DefaultConfig()
	if s.Seed != 0 {
		cfg.Seed = s.Seed
	}
	if s.TrialsPerBit != 0 {
		cfg.TrialsPerBit = s.TrialsPerBit
	}
	cfg.SkipZeros = !s.KeepZeros
	return cfg
}

// Trial is one fault injection: its provenance, the bit-level change,
// and the resulting error (paper Fig. 8's per-trial log row).
type Trial struct {
	Field string // dataset field key, e.g. "Nyx/temperature"
	Codec string // format name, e.g. "posit32"
	Bit   int    // flipped bit position (0 = LSB)
	Seq   int    // trial sequence number within this bit

	Index     int     // element index chosen in the data
	OrigValue float64 // original (float32-exact) data value
	ReprValue float64 // value after rounding into the format under test

	OrigBits   uint64  // encoded pattern before the flip
	FaultyBits uint64  // pattern after the XOR
	FaultyVal  float64 // decoded value of FaultyBits

	FieldName string // field owning the flipped bit: sign/regime/exponent/fraction
	RegimeK   int    // posit regime run length of OrigBits (0 for IEEE formats)

	// The errors measure FaultyVal against the original data value
	// (qcat.Point), not against ReprValue, so they include the
	// format's rounding of the original.
	AbsErr float64 // |OrigValue - FaultyVal|; +Inf if FaultyVal is NaN/Inf/NaR
	RelErr float64 // AbsErr / |OrigValue|; 0 if both are 0; +Inf if Catastrophic
	// Catastrophic marks a faulty value that decoded to NaN/Inf/NaR,
	// or a zero original that the flip made nonzero (a flip to -0 is
	// not catastrophic).
	Catastrophic bool
}

// Result is a completed campaign over one (field, codec) pair.
type Result struct {
	Field  string  // dataset field key the campaign ran over
	Codec  string  // format name under test
	N      int     // dataset length
	Trials []Trial // every injection, in (bit, seq) order; nil from runner.Run
	// Elapsed is the compute time of this campaign alone. Run records
	// the wall-clock time of its call. The Result runner.Run reports
	// for a spec holds the sum of the spec's shard durations instead:
	// shards overlap, so this is about Workers × the spec's wall time,
	// and after a resume it includes the durations that earlier runs
	// journaled.
	Elapsed time.Duration
}

// Run executes the campaign for one codec over one data array.
// data holds the field values (float32-exact, widened); fieldKey is
// recorded in every trial. Cancelling ctx stops the worker pool at bit
// granularity and returns the context's error; no partial Result is
// returned, so callers never observe a half-filled trial log.
func Run(ctx context.Context, cfg Config, codec numfmt.Codec, fieldKey string, data []float64) (*Result, error) {
	start := time.Now()
	trials, err := RunRange(ctx, cfg, codec, fieldKey, data, 0, codec.Width())
	if err != nil {
		return nil, err
	}
	return &Result{
		Field:   fieldKey,
		Codec:   codec.Name(),
		N:       len(data),
		Trials:  trials,
		Elapsed: time.Since(start),
	}, nil
}

// RunRange executes the campaign trials for bit positions [lo, hi)
// only — the shard primitive internal/runner schedules. Because every
// trial draws from a PRNG stream keyed by (seed, field, codec, bit,
// trial), the trials for a bit range are identical whether produced
// here or inside a full-width Run: concatenating shard outputs in bit
// order reproduces an uninterrupted campaign bit for bit.
func RunRange(ctx context.Context, cfg Config, codec numfmt.Codec, fieldKey string, data []float64, lo, hi int) ([]Trial, error) {
	return RunRangeInto(ctx, cfg, codec, fieldKey, data, lo, hi, nil)
}

// RunRangeInto is RunRange with a caller-supplied result buffer: when
// buf has capacity for every trial of the range it is resliced and
// filled in place (the returned slice aliases it); otherwise a fresh
// slice is allocated exactly as RunRange would. Every field of every
// trial is overwritten, so buf may hold any earlier shard, of any
// format. Threading one buffer through repeated calls — each runner
// shard worker's slab, positbench's steady-state measurement — makes
// the campaign loop allocation-free:
// with Workers == 1 the range runs serially on the calling goroutine,
// with no channel, no pool and no per-trial allocations (the PRNG
// keying is stack-only; BENCH_PR9.json pins 0 allocs/op).
func RunRangeInto(ctx context.Context, cfg Config, codec numfmt.Codec, fieldKey string, data []float64, lo, hi int, buf []Trial) ([]Trial, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("core: empty dataset for %s", fieldKey)
	}
	if cfg.TrialsPerBit <= 0 {
		return nil, fmt.Errorf("core: TrialsPerBit must be positive, got %d", cfg.TrialsPerBit)
	}
	if lo < 0 || hi > codec.Width() || lo >= hi {
		return nil, fmt.Errorf("core: bit range [%d,%d) invalid for %d-bit %s", lo, hi, codec.Width(), codec.Name())
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: campaign %s/%s: %w", fieldKey, codec.Name(), err)
	}
	if cfg.MaxSelectAttempts <= 0 {
		cfg.MaxSelectAttempts = defaultMaxSelectAttempts
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	need := (hi - lo) * cfg.TrialsPerBit
	var trials []Trial
	if cap(buf) >= need {
		trials = buf[:need]
	} else {
		trials = make([]Trial, need)
	}

	// Serial fast path: one worker means the calling goroutine can
	// fill the buffer directly — no channel, no pool, no allocation.
	// This is the shape every shard takes under the runner (shards are
	// the unit of parallelism; the engine inside one stays serial).
	// The pooled path lives in its own function because its goroutine
	// closure would otherwise force trials (and the captured config)
	// to the heap even on the serial branch — escape analysis is
	// static — which alone would cost 2 allocs per call here.
	if workers == 1 {
		for bit := lo; bit < hi; bit++ {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("core: campaign %s/%s: %w", fieldKey, codec.Name(), err)
			}
			out := trials[(bit-lo)*cfg.TrialsPerBit : (bit-lo+1)*cfg.TrialsPerBit]
			runBit(cfg, codec, fieldKey, data, bit, out)
			cfg.Metrics.AddInjections(len(out))
			cfg.Metrics.AddBitDone()
		}
		return trials, nil
	}
	if err := runRangePooled(ctx, cfg, codec, fieldKey, data, lo, hi, workers, trials); err != nil {
		return nil, err
	}
	return trials, nil
}

// runRangePooled fills trials over a fixed worker pool, one job per
// bit position; each worker fills a disjoint slice of the result, so
// no synchronization beyond the channel is needed (Effective Go's
// fixed-pool Serve pattern). On cancellation the feeder stops handing
// out bits and workers drain the channel without computing, so Wait
// returns promptly.
func runRangePooled(ctx context.Context, cfg Config, codec numfmt.Codec, fieldKey string, data []float64, lo, hi, workers int, trials []Trial) error {
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for bit := range jobs {
				if ctx.Err() != nil {
					continue // cancelled: drain remaining jobs without working
				}
				out := trials[(bit-lo)*cfg.TrialsPerBit : (bit-lo+1)*cfg.TrialsPerBit]
				runBit(cfg, codec, fieldKey, data, bit, out)
				cfg.Metrics.AddInjections(len(out))
				cfg.Metrics.AddBitDone()
			}
		}()
	}
feed:
	for bit := lo; bit < hi; bit++ {
		select {
		case jobs <- bit:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: campaign %s/%s: %w", fieldKey, codec.Name(), err)
	}
	return nil
}

// runBit executes all trials for one bit position. The PRNG stream of
// trial (bit, seq) is keyed by (seed, field, codec, bit, seq); the
// label-hash prefix is folded once per bit and extended per trial, so
// the loop body allocates nothing (the per-trial NewRNG + strconv
// calls used to dominate the allocation profile of a campaign). It
// runs three passes over out:
//
//   - draw: each trial's first index, from sdrbench.FirstIntn's one
//     splitmix64 round, or from the full stream when that first draw
//     is rejected;
//   - gather: every OrigValue read from data in its own tight loop, so
//     the random reads overlap instead of stalling one trial each;
//   - derive: a zero selection under SkipZeros replays the trial's
//     full stream (the first draw, then the re-draws), then the
//     identity fields are set and Deriver.Fill derives the rest.
//
// Every trial is the one a single pass over the full streams draws;
// TestCampaignDrawsPinned holds the digests.
func runBit(cfg Config, codec numfmt.Codec, fieldKey string, data []float64, bit int, out []Trial) {
	d := NewDeriver(codec)
	name := codec.Name()
	prefix := sdrbench.NewLabelHash(fieldKey, name, "bit"+strconv.Itoa(bit))
	n := len(data)
	for seq := range out {
		h := prefix.WithInt(seq)
		idx, ok := sdrbench.FirstIntn(cfg.Seed, h, n)
		if !ok {
			rng := sdrbench.RNGFromHash(cfg.Seed, h)
			idx = rng.Intn(n)
		}
		out[seq].Index = idx
	}
	for i := range out {
		out[i].OrigValue = data[out[i].Index]
	}
	for seq := range out {
		tr := &out[seq]
		if cfg.SkipZeros && tr.OrigValue == 0 {
			rng := sdrbench.RNGFromHash(cfg.Seed, prefix.WithInt(seq))
			idx := rng.Intn(n)
			for attempt := 0; data[idx] == 0 && attempt < cfg.MaxSelectAttempts; attempt++ {
				idx = rng.Intn(n)
			}
			tr.Index = idx
			tr.OrigValue = data[idx]
		}
		tr.Field = fieldKey
		tr.Codec = name
		tr.Bit = bit
		tr.Seq = seq
		d.Fill(tr)
	}
}

// FaultyArrayStats returns the summary statistics of the dataset with
// one trial's corruption applied — the "summary statistics of the
// faulty data" step of §4.2 — computed incrementally from the baseline
// in O(1) for the mean and O(n) only when the extremes are displaced.
func FaultyArrayStats(base stats.Summary, data []float64, tr Trial) stats.Summary {
	out := base
	if tr.Index < 0 || tr.Index >= len(data) {
		return out
	}
	old := data[tr.Index]
	nv := tr.FaultyVal
	if math.IsNaN(nv) || math.IsInf(nv, 0) {
		// Special values are excluded from moments (see stats): the
		// faulty array loses one element.
		tmp := make([]float64, len(data))
		copy(tmp, data)
		tmp[tr.Index] = nv
		return stats.Summarize(tmp)
	}
	n := float64(base.Count)
	out.Mean = base.Mean + (nv-old)/n
	switch {
	case nv > base.Max:
		out.Max = nv
	case sameBits(old, base.Max) && nv < old:
		out.Max = recompute(data, tr.Index, nv, true)
	}
	switch {
	case nv < base.Min:
		out.Min = nv
	case sameBits(old, base.Min) && nv > old:
		out.Min = recompute(data, tr.Index, nv, false)
	}
	// Variance shift via sum-of-squares update.
	m2 := base.Std*base.Std*n + (nv*nv - old*old) - (out.Mean*out.Mean-base.Mean*base.Mean)*n
	if m2 < 0 {
		m2 = 0
	}
	out.Std = math.Sqrt(m2 / n)
	// The median of a single-element substitution moves at most one
	// order statistic; recompute exactly (O(n) but rarely needed).
	tmp := make([]float64, len(data))
	copy(tmp, data)
	tmp[tr.Index] = nv
	out.Median = stats.Median(tmp)
	return out
}

// sameBits is an exact identity check on float64 representations,
// used to detect whether the displaced element *was* the tracked
// extreme (bit-pattern equality, the comparison positlint's floatcmp
// rule prescribes for identity tracking).
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func recompute(data []float64, skip int, replacement float64, wantMax bool) float64 {
	best := replacement
	for i, v := range data {
		if i == skip || math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		if wantMax && v > best || !wantMax && v < best {
			best = v
		}
	}
	return best
}
