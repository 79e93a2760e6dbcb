package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"
)

// TestRunPreCancelled: a context cancelled before the call returns the
// context error immediately and produces no result.
func TestRunPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	data := testData(t, "CESM/CLOUD", 2000)
	res, err := Run(ctx, smallCfg(), mustCodec(t, "posit32"), "CESM/CLOUD", data)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("pre-cancelled Run must not return a result")
	}
}

// TestRunCancelMidCampaign: cancelling shortly after launch aborts the
// campaign at every worker count. The workload is sized to take well
// over the cancellation delay (hundreds of thousands of trials), so a
// completed run before the cancel would itself be a finding. Runs
// under -race via `make race`, exercising the drain path for data
// races at 1, 2 and 8 workers.
func TestRunCancelMidCampaign(t *testing.T) {
	data := testData(t, "Hurricane/Uf30", 50000)
	codec := mustCodec(t, "posit32")
	for _, workers := range []int{1, 2, 8} {
		cfg := smallCfg()
		cfg.TrialsPerBit = 10000 // 32 bits × 10k trials: far beyond the cancel delay
		cfg.Workers = workers
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		var res *Result
		var err error
		go func(ctx context.Context) {
			res, err = Run(ctx, cfg, codec, "Hurricane/Uf30", data)
			close(done)
		}(ctx)
		time.Sleep(2 * time.Millisecond)
		cancel()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("workers=%d: cancelled campaign did not drain", workers)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if res != nil {
			t.Fatalf("workers=%d: cancelled run returned a result", workers)
		}
	}
}

// TestRunRangeShardsComposeToFullRun: the shard primitive is
// bit-identical to the monolithic campaign — concatenating RunRange
// outputs over a partition of the bit space reproduces Run's trial
// log exactly. This is the determinism property the resumable runner
// is built on.
func TestRunRangeShardsComposeToFullRun(t *testing.T) {
	data := testData(t, "Nyx/temperature", 5000)
	codec := mustCodec(t, "posit32")
	cfg := smallCfg()
	full, err := Run(context.Background(), cfg, codec, "Nyx/temperature", data)
	if err != nil {
		t.Fatal(err)
	}
	var stitched []Trial
	for lo := 0; lo < codec.Width(); lo += 5 {
		hi := lo + 5
		if hi > codec.Width() {
			hi = codec.Width()
		}
		part, err := RunRange(context.Background(), cfg, codec, "Nyx/temperature", data, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		stitched = append(stitched, part...)
	}
	if len(stitched) != len(full.Trials) {
		t.Fatalf("stitched %d trials, want %d", len(stitched), len(full.Trials))
	}
	for i := range stitched {
		if !trialBitEqual(stitched[i], full.Trials[i]) {
			t.Fatalf("trial %d differs:\nshard %+v\nfull  %+v", i, stitched[i], full.Trials[i])
		}
	}
}

// trialBitEqual compares trials with float fields reduced to their bit
// patterns, so a deterministic NaN (e.g. a decoded NaR in FaultyVal)
// compares equal to itself.
func trialBitEqual(a, b Trial) bool {
	fb := math.Float64bits
	return a.Field == b.Field && a.Codec == b.Codec && a.Bit == b.Bit && a.Seq == b.Seq &&
		a.Index == b.Index && a.OrigBits == b.OrigBits && a.FaultyBits == b.FaultyBits &&
		a.FieldName == b.FieldName && a.RegimeK == b.RegimeK && a.Catastrophic == b.Catastrophic &&
		fb(a.OrigValue) == fb(b.OrigValue) && fb(a.ReprValue) == fb(b.ReprValue) &&
		fb(a.FaultyVal) == fb(b.FaultyVal) && fb(a.AbsErr) == fb(b.AbsErr) && fb(a.RelErr) == fb(b.RelErr)
}

// TestRunRangeValidation: malformed bit ranges are rejected.
func TestRunRangeValidation(t *testing.T) {
	data := []float64{1, 2, 3}
	codec := mustCodec(t, "posit16")
	for _, r := range [][2]int{{-1, 4}, {0, 17}, {8, 8}, {9, 3}} {
		if _, err := RunRange(context.Background(), smallCfg(), codec, "x", data, r[0], r[1]); err == nil {
			t.Errorf("range [%d,%d) should error", r[0], r[1])
		}
	}
}
