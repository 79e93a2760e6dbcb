package main

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"positres/internal/core"
	"positres/internal/store"
)

// TestSummaryMedianOfMedians: a quarter's "median rel err" is the
// median of its bits' finite medians, whatever order the bits' medians
// come in — not the median of the quarter's middle bit.
func TestSummaryMedianOfMedians(t *testing.T) {
	// 16 bits, so each quarter holds 4. Quarter 0's medians are out of
	// order and one is NaN: the finite ones are {5, 1, 3}, median 3
	// (the middle bit's median is 1). Quarter 1's four medians
	// interpolate to (2+3)/2. Quarters 2 and 3 have no finite median.
	medians := []float64{
		math.NaN(), 5, 1, 3,
		4, 1, 3, 2,
		math.NaN(), math.Inf(1), math.NaN(), math.NaN(),
		math.NaN(), math.NaN(), math.NaN(), math.NaN(),
	}
	aggs := make([]core.BitAgg, len(medians))
	for i, m := range medians {
		aggs[i] = core.BitAgg{Bit: i, Trials: 1, MedianRelErr: m}
	}
	want := map[string]string{"0-3": "3", "4-7": "2.5", "8-11": "0", "12-15": "0"}
	rows := 0
	for _, line := range strings.Split(summary(aggs), "\n") {
		f := strings.Fields(line)
		if len(f) != 5 {
			continue
		}
		w, ok := want[f[0]]
		if !ok {
			continue
		}
		rows++
		if f[2] != w {
			t.Errorf("bits %s: median rel err %s, want %s", f[0], f[2], w)
		}
	}
	if rows != len(want) {
		t.Fatalf("summary has %d of %d quarter rows:\n%s", rows, len(want), summary(aggs))
	}
}

// TestSealAllIndexAligned: sealAll seals every complete spec's store,
// concurrently, and reports each seal's error at its spec's index —
// here the one spec that never appended a shard — so the caller can
// fail on the first error in spec order. Nil results are skipped.
func TestSealAllIndexAligned(t *testing.T) {
	dir := t.TempDir()
	cw := store.NewCampaignWriter(dir)
	defer cw.Abort()
	var results []*core.Result
	for i, field := range []string{"CESM/CLOUD", "HACC/vx", "Nyx/temperature"} {
		for _, codec := range []string{"posit8", "posit16", "ieee32"} {
			results = append(results, &core.Result{Field: field, Codec: codec})
			if i == 1 && codec == "posit16" {
				continue // no shard: its seal must fail
			}
			tr := []core.Trial{{Field: field, Codec: codec, Bit: 0, OrigValue: 1}}
			if err := cw.AppendShard(field, codec, 0, 1, tr); err != nil {
				t.Fatal(err)
			}
		}
	}
	results = append(results, nil)
	errs := sealAll(cw, results)
	if len(errs) != len(results) {
		t.Fatalf("%d errors for %d results", len(errs), len(results))
	}
	for i, res := range results {
		switch {
		case res == nil:
			if errs[i] != nil {
				t.Errorf("result %d (nil): error %v", i, errs[i])
			}
		case res.Field == "HACC/vx" && res.Codec == "posit16":
			if errs[i] == nil {
				t.Errorf("%s/%s: sealed with no shard appended", res.Field, res.Codec)
			}
		default:
			if errs[i] != nil {
				t.Errorf("%s/%s: %v", res.Field, res.Codec, errs[i])
				continue
			}
			rd, err := store.Open(filepath.Join(dir, store.FileName(res.Field, res.Codec)))
			if err != nil {
				t.Errorf("%s/%s: sealed store does not open: %v", res.Field, res.Codec, err)
				continue
			}
			if rd.Rows() != 1 {
				t.Errorf("%s/%s: %d rows, want 1", res.Field, res.Codec, rd.Rows())
			}
			rd.Close()
		}
	}
}
