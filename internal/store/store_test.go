package store

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"positres/internal/core"
	"positres/internal/numfmt"
	"positres/internal/sdrbench"
)

// genTrials runs a real (small) campaign range so store tests exercise
// the exact trial population the runner would append — including
// catastrophic rows, posit field names and denormal-scale errors.
func genTrials(t testing.TB, field, codecName string, n, trialsPerBit, lo, hi int) []core.Trial {
	t.Helper()
	f, err := sdrbench.Lookup(field)
	if err != nil {
		t.Fatal(err)
	}
	codec, err := numfmt.Lookup(codecName)
	if err != nil {
		t.Fatal(err)
	}
	data := sdrbench.ToFloat64(f.Generate(n, 7))
	cfg := core.DefaultConfig()
	cfg.Seed = 7
	cfg.TrialsPerBit = trialsPerBit
	cfg.Workers = 1
	trials, err := core.RunRange(context.Background(), cfg, codec, field, data, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	return trials
}

// writeStore appends trials as consecutive shards of shardBits bits
// each and seals — the write path the runner drives.
func writeStore(t testing.TB, path, field, codecName string, trials []core.Trial, lo, hi, shardBits int) {
	t.Helper()
	w, err := NewWriter(path, field, codecName)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	for slo := lo; slo < hi; slo += shardBits {
		shi := slo + shardBits
		if shi > hi {
			shi = hi
		}
		var shard []core.Trial
		for i := range trials {
			if trials[i].Bit >= slo && trials[i].Bit < shi {
				shard = append(shard, trials[i])
			}
		}
		if err := w.AppendShard(slo, shi, shard); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}
}

// TestRoundTrip pins losslessness: a store read back in assembly
// order reproduces every Trial bit for bit.
func TestRoundTrip(t *testing.T) {
	trials := genTrials(t, "CESM/CLOUD", "posit16", 400, 7, 0, 16)
	path := filepath.Join(t.TempDir(), FileName("CESM/CLOUD", "posit16"))
	writeStore(t, path, "CESM/CLOUD", "posit16", trials, 0, 16, 4)

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Field() != "CESM/CLOUD" || r.Codec() != "posit16" {
		t.Fatalf("identity (%s, %s)", r.Field(), r.Codec())
	}
	if r.Rows() != uint64(len(trials)) {
		t.Fatalf("rows %d, want %d", r.Rows(), len(trials))
	}
	if r.Blocks() != 4 {
		t.Fatalf("blocks %d, want 4", r.Blocks())
	}
	got, err := r.Trials()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(trials) {
		t.Fatalf("decoded %d trials, want %d", len(got), len(trials))
	}
	for i := range got {
		if !sameTrial(&got[i], &trials[i]) {
			t.Fatalf("trial %d: got %+v, want %+v", i, got[i], trials[i])
		}
	}
	if err := r.Verify(); err != nil {
		t.Fatal(err)
	}
}

// sameTrial compares every field, floats by bit pattern so NaNs and
// signed zeros round-trip too.
func sameTrial(a, b *core.Trial) bool {
	sameFloat := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	}
	return a.Field == b.Field && a.Codec == b.Codec &&
		a.Bit == b.Bit && a.Seq == b.Seq && a.Index == b.Index &&
		sameFloat(a.OrigValue, b.OrigValue) && sameFloat(a.ReprValue, b.ReprValue) &&
		a.OrigBits == b.OrigBits && a.FaultyBits == b.FaultyBits &&
		sameFloat(a.FaultyVal, b.FaultyVal) &&
		a.FieldName == b.FieldName && a.RegimeK == b.RegimeK &&
		sameFloat(a.AbsErr, b.AbsErr) && sameFloat(a.RelErr, b.RelErr) &&
		a.Catastrophic == b.Catastrophic
}

// TestRenderCSVByteIdentical pins the tentpole invariant: the store's
// streamed CSV equals core.WriteTrialsCSV over the same trials, byte
// for byte, even when shards were appended out of bit order.
func TestRenderCSVByteIdentical(t *testing.T) {
	trials := genTrials(t, "HACC/vx", "posit16", 400, 6, 0, 16)
	path := filepath.Join(t.TempDir(), FileName("HACC/vx", "posit16"))

	// Append shards in scrambled completion order, as a parallel
	// campaign would.
	w, err := NewWriter(path, "HACC/vx", "posit16")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	for _, rng := range [][2]int{{8, 12}, {0, 4}, {12, 16}, {4, 8}} {
		var shard []core.Trial
		for i := range trials {
			if trials[i].Bit >= rng[0] && trials[i].Bit < rng[1] {
				shard = append(shard, trials[i])
			}
		}
		if err := w.AppendShard(rng[0], rng[1], shard); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}

	var direct bytes.Buffer
	if err := core.WriteTrialsCSV(&direct, trials); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var rendered bytes.Buffer
	if err := r.RenderCSV(&rendered); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct.Bytes(), rendered.Bytes()) {
		t.Fatalf("rendered CSV differs from direct path: %d vs %d bytes",
			rendered.Len(), direct.Len())
	}
}

// TestBitAggsMatchSlicePath pins the online aggregation against
// core.AggregateByBit: counts, means, maxima, geometric means and
// field shares must agree exactly (the fold replays the same serial
// arithmetic); the sketch medians must land within the sketch's
// relative accuracy of the exact medians.
func TestBitAggsMatchSlicePath(t *testing.T) {
	trials := genTrials(t, "CESM/CLOUD", "posit16", 400, 9, 0, 16)
	path := filepath.Join(t.TempDir(), FileName("CESM/CLOUD", "posit16"))
	writeStore(t, path, "CESM/CLOUD", "posit16", trials, 0, 16, 4)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	want := core.AggregateByBit(trials)
	got := r.BitAggs()
	if len(got) != len(want) {
		t.Fatalf("%d bit aggregates, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if g.Bit != w.Bit || g.Trials != w.Trials || g.Catastrophic != w.Catastrophic {
			t.Fatalf("bit %d: counts (%d, %d, %d), want (%d, %d, %d)",
				w.Bit, g.Bit, g.Trials, g.Catastrophic, w.Bit, w.Trials, w.Catastrophic)
		}
		mustSameFloat(t, w.Bit, "MeanRelErr", g.MeanRelErr, w.MeanRelErr)
		mustSameFloat(t, w.Bit, "MaxRelErr", g.MaxRelErr, w.MaxRelErr)
		mustSameFloat(t, w.Bit, "GeoRelErr", g.GeoRelErr, w.GeoRelErr)
		mustSameFloat(t, w.Bit, "MeanAbsErr", g.MeanAbsErr, w.MeanAbsErr)
		mustSameFloat(t, w.Bit, "MaxAbsErr", g.MaxAbsErr, w.MaxAbsErr)
		if len(g.FieldShare) != len(w.FieldShare) {
			t.Fatalf("bit %d: %d field shares, want %d", w.Bit, len(g.FieldShare), len(w.FieldShare))
		}
		for name, share := range w.FieldShare {
			mustSameFloat(t, w.Bit, "FieldShare["+name+"]", g.FieldShare[name], share)
		}
		// Medians: the sketch's guarantee is relative accuracy against
		// the order statistic at rank ⌊q·(n−1)⌋, not the interpolated
		// stats.Median the slice path reports. Compare against the
		// exact same-rank value so the bound is sound even when the
		// two middle errors sit decades apart.
		var rels, abss []float64
		for i := range trials {
			if trials[i].Bit == w.Bit && !trials[i].Catastrophic {
				rels = append(rels, trials[i].RelErr)
				abss = append(abss, trials[i].AbsErr)
			}
		}
		mustWithinRelative(t, w.Bit, "MedianRelErr", g.MedianRelErr, exactRank(rels, 0.5))
		mustWithinRelative(t, w.Bit, "MedianAbsErr", g.MedianAbsErr, exactRank(abss, 0.5))
	}
}

// exactRank returns the finite order statistic at the sketch's rank
// convention, rank = ⌊q·(n−1)⌋ over ascending finite values.
func exactRank(data []float64, q float64) float64 {
	finite := make([]float64, 0, len(data))
	for _, x := range data {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			finite = append(finite, x)
		}
	}
	if len(finite) == 0 {
		return math.NaN()
	}
	sort.Float64s(finite)
	return finite[int(q*float64(len(finite)-1))]
}

// mustSameFloat asserts bit-pattern equality (NaN-safe).
func mustSameFloat(t *testing.T, bit int, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("bit %d: %s = %v, want %v", bit, what, got, want)
	}
}

// mustWithinRelative asserts the sketch estimate lands within the
// sketch accuracy of the exact same-rank value (a hair of slack for
// the float log/exp round trip). NaN must match NaN; exact zeros must
// hit the zero bucket exactly.
func mustWithinRelative(t *testing.T, bit int, what string, got, want float64) {
	t.Helper()
	if math.IsNaN(want) {
		if !math.IsNaN(got) {
			t.Fatalf("bit %d: %s = %v, want NaN", bit, what, got)
		}
		return
	}
	if math.Abs(got-want) > 1.001*SketchAlpha*math.Abs(want) {
		t.Fatalf("bit %d: %s = %v, want %v within %.0f%%", bit, what, got, want, 100*SketchAlpha)
	}
}

// TestWriterRejectsShardViolations pins the append-time validation:
// wrong identity, out-of-range bits and use-after-seal all fail
// without corrupting the file.
func TestWriterRejectsShardViolations(t *testing.T) {
	dir := t.TempDir()
	trials := genTrials(t, "CESM/CLOUD", "posit16", 200, 2, 0, 4)
	w, err := NewWriter(filepath.Join(dir, "x.pts"), "CESM/CLOUD", "posit16")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if err := w.AppendShard(4, 8, trials); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("out-of-range bits: %v", err)
	}
	wrong := make([]core.Trial, 1)
	wrong[0] = trials[0]
	wrong[0].Codec = "ieee32"
	if err := w.AppendShard(0, 4, wrong); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mixed codec: %v", err)
	}
	// Rejected appends must leave the writer usable: the shard was
	// refused before any byte hit the file.
	if err := w.AppendShard(0, 4, trials); err != nil {
		t.Fatal(err)
	}
	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendShard(0, 4, trials); !errors.Is(err, ErrSealed) {
		t.Fatalf("append after seal: %v", err)
	}
	if err := w.Seal(); !errors.Is(err, ErrSealed) {
		t.Fatalf("double seal: %v", err)
	}
}

// TestAbortLeavesNoFile pins the atomic-write contract: an aborted
// store leaves neither the final path nor temp debris.
func TestAbortLeavesNoFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.pts")
	w, err := NewWriter(path, "CESM/CLOUD", "posit16")
	if err != nil {
		t.Fatal(err)
	}
	trials := genTrials(t, "CESM/CLOUD", "posit16", 200, 2, 0, 4)
	if err := w.AppendShard(0, 4, trials); err != nil {
		t.Fatal(err)
	}
	w.Abort()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("unexpected file after abort: %s", e.Name())
	}
	if err := w.AppendShard(0, 4, trials); !errors.Is(err, ErrSealed) {
		t.Fatalf("append after abort: %v", err)
	}
}

// TestCampaignWriter pins the sink fan-out: two specs, interleaved
// shards, per-spec sealing, live snapshots.
func TestCampaignWriter(t *testing.T) {
	dir := t.TempDir()
	cw := NewCampaignWriter(dir)
	defer cw.Abort()
	cloud := genTrials(t, "CESM/CLOUD", "posit16", 200, 3, 0, 16)
	vx := genTrials(t, "HACC/vx", "posit16", 200, 3, 0, 16)
	for lo := 0; lo < 16; lo += 8 {
		for _, set := range [][]core.Trial{cloud, vx} {
			var shard []core.Trial
			for i := range set {
				if set[i].Bit >= lo && set[i].Bit < lo+8 {
					shard = append(shard, set[i])
				}
			}
			if err := cw.AppendShard(shard[0].Field, "posit16", lo, lo+8, shard); err != nil {
				t.Fatal(err)
			}
		}
	}

	docs := cw.Snapshot()
	if len(docs) != 2 {
		t.Fatalf("%d snapshot docs, want 2", len(docs))
	}
	if docs[0].Field != "CESM/CLOUD" || docs[1].Field != "HACC/vx" {
		t.Fatalf("snapshot order: %s, %s", docs[0].Field, docs[1].Field)
	}
	for _, doc := range docs {
		if doc.Sealed {
			t.Errorf("%s: live snapshot claims sealed", doc.Field)
		}
		if doc.Trials != 48 { // 16 bits × 3 trials
			t.Errorf("%s: %d trials in snapshot, want 48", doc.Field, doc.Trials)
		}
		if doc.Schema != DocSchema {
			t.Errorf("%s: schema %q", doc.Field, doc.Schema)
		}
	}

	if err := cw.Seal("CESM/CLOUD", "posit16"); err != nil {
		t.Fatal(err)
	}
	if err := cw.Seal("HACC/vx", "posit16"); err != nil {
		t.Fatal(err)
	}
	if err := cw.Seal("HACC/vy", "posit16"); err == nil {
		t.Fatal("sealing a spec with no shards succeeded")
	}
	for _, f := range []string{FileName("CESM/CLOUD", "posit16"), FileName("HACC/vx", "posit16")} {
		r, err := Open(filepath.Join(dir, f))
		if err != nil {
			t.Fatal(err)
		}
		if r.Rows() != 48 {
			t.Errorf("%s: %d rows", f, r.Rows())
		}
		if !r.Doc().Sealed {
			t.Errorf("%s: sealed store's doc claims live", f)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDocJSONRoundTrip pins the positres-aggregate/v1 document: NaN
// and Inf survive, the schema gate refuses other tags, and BitAggs
// reconstructs the core shape.
func TestDocJSONRoundTrip(t *testing.T) {
	trials := genTrials(t, "CESM/CLOUD", "posit16", 200, 3, 0, 16)
	path := filepath.Join(t.TempDir(), "x.pts")
	writeStore(t, path, "CESM/CLOUD", "posit16", trials, 0, 16, 8)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	doc := r.Doc()

	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadDoc(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	wantAggs := r.BitAggs()
	gotAggs := back.BitAggs()
	if len(gotAggs) != len(wantAggs) {
		t.Fatalf("%d aggs after round trip, want %d", len(gotAggs), len(wantAggs))
	}
	for i := range wantAggs {
		mustSameFloat(t, wantAggs[i].Bit, "MeanRelErr", gotAggs[i].MeanRelErr, wantAggs[i].MeanRelErr)
		mustSameFloat(t, wantAggs[i].Bit, "MaxAbsErr", gotAggs[i].MaxAbsErr, wantAggs[i].MaxAbsErr)
	}

	bad := bytes.NewBufferString(`{"schema": "positres-aggregate/v2"}`)
	if _, err := ReadDoc(bad); err == nil {
		t.Fatal("wrong schema accepted")
	}
}

// TestOpenRejectsCorruption flips one byte at a time through a sealed
// file's structural landmarks and requires Open/Verify to refuse each
// damaged variant rather than serve altered rows.
func TestOpenRejectsCorruption(t *testing.T) {
	trials := genTrials(t, "CESM/CLOUD", "posit16", 200, 3, 0, 16)
	dir := t.TempDir()
	path := filepath.Join(dir, "x.pts")
	writeStore(t, path, "CESM/CLOUD", "posit16", trials, 0, 16, 8)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Damage a spread of offsets: header magic, version, first block,
	// mid-file, the footer region and the trailer.
	offsets := []int{0, 4, 8, len(orig) / 2, len(orig) - 12, len(orig) - 2}
	for _, off := range offsets {
		bad := append([]byte(nil), orig...)
		bad[off] ^= 0xFF
		p := filepath.Join(dir, "bad.pts")
		if err := os.WriteFile(p, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(p)
		if err != nil {
			continue // refused at open: good
		}
		verr := r.Verify()
		_ = r.Close()
		if verr == nil {
			t.Errorf("corruption at offset %d went undetected", off)
		}
	}
}

// shardOf returns the trials of bits [lo, hi).
func shardOf(trials []core.Trial, lo, hi int) []core.Trial {
	var out []core.Trial
	for i := range trials {
		if trials[i].Bit >= lo && trials[i].Bit < hi {
			out = append(out, trials[i])
		}
	}
	return out
}

// TestWriterRefusesOverlappingShard pins one shard per bit: a shard
// covering an already-appended bit — a duplicate or a partial overlap
// — is refused with ErrCorrupt before any byte reaches the file, so
// RenderCSV and the per-bit aggregates never count a row twice.
func TestWriterRefusesOverlappingShard(t *testing.T) {
	trials := genTrials(t, "CESM/CLOUD", "posit16", 200, 3, 0, 16)
	path := filepath.Join(t.TempDir(), FileName("CESM/CLOUD", "posit16"))
	w, err := NewWriter(path, "CESM/CLOUD", "posit16")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if err := w.AppendShard(4, 8, shardOf(trials, 4, 8)); err != nil {
		t.Fatal(err)
	}
	size, err := w.pf.Offset()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]int{{4, 8}, {0, 5}, {7, 12}, {5, 6}, {0, 16}} {
		if err := w.AppendShard(r[0], r[1], shardOf(trials, r[0], r[1])); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("shard [%d, %d) over appended [4, 8): err = %v, want ErrCorrupt", r[0], r[1], err)
		}
		if now, err := w.pf.Offset(); err != nil || now != size {
			t.Fatalf("refused shard [%d, %d) moved the file from %d to %d bytes (%v)", r[0], r[1], size, now, err)
		}
	}
	// The writer stays usable for the bits no shard has covered yet.
	for _, r := range [][2]int{{0, 4}, {8, 16}} {
		if err := w.AppendShard(r[0], r[1], shardOf(trials, r[0], r[1])); err != nil {
			t.Fatal(err)
		}
	}
	if w.Rows() != uint64(len(trials)) {
		t.Fatalf("rows %d, want %d", w.Rows(), len(trials))
	}
	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var got, want bytes.Buffer
	if err := r.RenderCSV(&got); err != nil {
		t.Fatal(err)
	}
	if err := core.WriteTrialsCSV(&want, trials); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("rendered CSV differs from the trials (%d vs %d bytes)", got.Len(), want.Len())
	}
	for _, a := range r.BitAggs() {
		if a.Trials != 3 {
			t.Fatalf("bit %d aggregates %d trials, want 3", a.Bit, a.Trials)
		}
	}
}

// TestConcurrentAppendsMatchSerial: shards appended by 8 goroutines at
// once — encoding and folding in parallel, in whatever order the
// scheduler picks — give the same rendered CSV and the same per-bit
// aggregates, bit for bit, as appending them one by one. Not skipped
// under -short, so `make race` checks the append path for races.
func TestConcurrentAppendsMatchSerial(t *testing.T) {
	trials := genTrials(t, "Hurricane/Wf30", "posit32", 500, 7, 0, 32)
	dir := t.TempDir()
	serial := filepath.Join(dir, "serial.pts")
	writeStore(t, serial, "Hurricane/Wf30", "posit32", trials, 0, 32, 4)

	parallel := filepath.Join(dir, "parallel.pts")
	w, err := NewWriter(parallel, "Hurricane/Wf30", "posit32")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for lo := 0; lo < 32; lo += 4 {
		wg.Add(1)
		go func(lo int) {
			defer wg.Done()
			errs <- w.AppendShard(lo, lo+4, shardOf(trials, lo, lo+4))
		}(lo)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	live := w.BitAggs()
	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}

	render := func(path string) ([]byte, []core.BitAgg) {
		r, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		var b bytes.Buffer
		if err := r.RenderCSV(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes(), r.BitAggs()
	}
	wantCSV, wantAggs := render(serial)
	gotCSV, gotAggs := render(parallel)
	if !bytes.Equal(gotCSV, wantCSV) {
		t.Fatalf("concurrent store renders %d bytes, serial %d; contents differ", len(gotCSV), len(wantCSV))
	}
	for _, got := range [][]core.BitAgg{live, gotAggs} {
		if len(got) != len(wantAggs) {
			t.Fatalf("%d bit aggregates, want %d", len(got), len(wantAggs))
		}
		for i, want := range wantAggs {
			g := got[i]
			if g.Bit != want.Bit || g.Trials != want.Trials || g.Catastrophic != want.Catastrophic {
				t.Fatalf("bit %d: counts %+v, want %+v", want.Bit, g, want)
			}
			mustSameFloat(t, want.Bit, "MeanRelErr", g.MeanRelErr, want.MeanRelErr)
			mustSameFloat(t, want.Bit, "MedianRelErr", g.MedianRelErr, want.MedianRelErr)
			mustSameFloat(t, want.Bit, "GeoRelErr", g.GeoRelErr, want.GeoRelErr)
			mustSameFloat(t, want.Bit, "MaxRelErr", g.MaxRelErr, want.MaxRelErr)
			mustSameFloat(t, want.Bit, "MeanAbsErr", g.MeanAbsErr, want.MeanAbsErr)
			mustSameFloat(t, want.Bit, "MedianAbsErr", g.MedianAbsErr, want.MedianAbsErr)
			mustSameFloat(t, want.Bit, "MaxAbsErr", g.MaxAbsErr, want.MaxAbsErr)
			if len(g.FieldShare) != len(want.FieldShare) {
				t.Fatalf("bit %d: %d field shares, want %d", want.Bit, len(g.FieldShare), len(want.FieldShare))
			}
			for name, share := range want.FieldShare {
				mustSameFloat(t, want.Bit, "FieldShare["+name+"]", g.FieldShare[name], share)
			}
		}
	}
}
