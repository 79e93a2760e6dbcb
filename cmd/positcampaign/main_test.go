package main

import (
	"math"
	"strings"
	"testing"

	"positres/internal/core"
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
