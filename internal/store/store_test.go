package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
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

// TestRoundTrip pins losslessness for every registered codec: a store
// read back in assembly order reproduces every Trial bit for bit, the
// derived columns rebuilt from each row's stored index and original.
func TestRoundTrip(t *testing.T) {
	for _, name := range numfmt.Names() {
		t.Run(name, func(t *testing.T) {
			width := mustWidth(t, name)
			trials := genTrials(t, "CESM/CLOUD", name, 400, 7, 0, width)
			path := filepath.Join(t.TempDir(), FileName("CESM/CLOUD", name))
			writeStore(t, path, "CESM/CLOUD", name, trials, 0, width, 4)

			r, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if r.Field() != "CESM/CLOUD" || r.Codec() != name {
				t.Fatalf("identity (%s, %s)", r.Field(), r.Codec())
			}
			if r.Rows() != uint64(len(trials)) {
				t.Fatalf("rows %d, want %d", r.Rows(), len(trials))
			}
			if r.Blocks() != width/4 {
				t.Fatalf("blocks %d, want %d", r.Blocks(), width/4)
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
		})
	}
}

// mustWidth returns the bit width of a registered codec.
func mustWidth(t testing.TB, name string) int {
	t.Helper()
	codec, err := numfmt.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return codec.Width()
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

// TestRenderCSVByteIdentical pins the store's contract for every
// registered codec: the streamed CSV equals core.WriteTrialsCSV over
// the same trials, byte for byte, even when shards were appended out
// of bit order. It is what ties the block to core.Trial: a Trial field
// the block neither stores nor rebuilds shows up here as a CSV
// mismatch.
func TestRenderCSVByteIdentical(t *testing.T) {
	for _, name := range numfmt.Names() {
		t.Run(name, func(t *testing.T) {
			width := mustWidth(t, name)
			trials := genTrials(t, "HACC/vx", name, 400, 6, 0, width)
			path := filepath.Join(t.TempDir(), FileName("HACC/vx", name))

			// Append 4-bit shards in scrambled completion order, as a
			// parallel campaign would.
			w, err := NewWriter(path, "HACC/vx", name)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Abort()
			shards := width / 4
			for i := 0; i < shards; i++ {
				lo := (i*3 + 2) % shards * 4
				if err := w.AppendShard(lo, lo+4, shardOf(trials, lo, lo+4)); err != nil {
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
		})
	}
}

// TestBitAggsMatchSlicePath pins the footer against
// core.AggregateByBit over the same trials: every field, medians and
// field shares included, bit for bit — the footer persists that fold's
// result, so a summary read back from a store is the one computed from
// the trials.
func TestBitAggsMatchSlicePath(t *testing.T) {
	trials := genTrials(t, "CESM/CLOUD", "posit16", 400, 9, 0, 16)
	path := filepath.Join(t.TempDir(), FileName("CESM/CLOUD", "posit16"))
	writeStore(t, path, "CESM/CLOUD", "posit16", trials, 0, 16, 4)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	mustSameAggs(t, r.BitAggs(), core.AggregateByBit(trials))
}

// mustSameFloat asserts bit-pattern equality (NaN-safe).
func mustSameFloat(t *testing.T, bit int, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("bit %d: %s = %v, want %v", bit, what, got, want)
	}
}

// mustSameAggs asserts got equals want on every BitAgg field, floats
// by bit pattern.
func mustSameAggs(t *testing.T, got, want []core.BitAgg) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d bit aggregates, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Bit != w.Bit || g.Trials != w.Trials || g.Catastrophic != w.Catastrophic {
			t.Fatalf("bit %d: counts (%d, %d, %d), want (%d, %d, %d)",
				w.Bit, g.Bit, g.Trials, g.Catastrophic, w.Bit, w.Trials, w.Catastrophic)
		}
		mustSameFloat(t, w.Bit, "MeanRelErr", g.MeanRelErr, w.MeanRelErr)
		mustSameFloat(t, w.Bit, "MedianRelErr", g.MedianRelErr, w.MedianRelErr)
		mustSameFloat(t, w.Bit, "GeoRelErr", g.GeoRelErr, w.GeoRelErr)
		mustSameFloat(t, w.Bit, "MaxRelErr", g.MaxRelErr, w.MaxRelErr)
		mustSameFloat(t, w.Bit, "MeanAbsErr", g.MeanAbsErr, w.MeanAbsErr)
		mustSameFloat(t, w.Bit, "MedianAbsErr", g.MedianAbsErr, w.MedianAbsErr)
		mustSameFloat(t, w.Bit, "MaxAbsErr", g.MaxAbsErr, w.MaxAbsErr)
		if len(g.FieldShare) != len(w.FieldShare) {
			t.Fatalf("bit %d: %d field shares, want %d", w.Bit, len(g.FieldShare), len(w.FieldShare))
		}
		for name, share := range w.FieldShare {
			mustSameFloat(t, w.Bit, "FieldShare["+name+"]", g.FieldShare[name], share)
		}
	}
}

// TestWriterRejectsShardViolations pins the append-time validation:
// wrong identity, out-of-range bits, a row count that does not fill the
// range evenly, rows out of (bit, seq) order and use-after-seal all
// fail without corrupting the file, and an unknown codec never gets a
// writer.
func TestWriterRejectsShardViolations(t *testing.T) {
	dir := t.TempDir()
	if _, err := NewWriter(filepath.Join(dir, "u.pts"), "CESM/CLOUD", "posit17"); err == nil {
		t.Fatal("NewWriter accepted a codec numfmt does not know")
	}
	trials := genTrials(t, "CESM/CLOUD", "posit16", 200, 2, 0, 4)
	w, err := NewWriter(filepath.Join(dir, "x.pts"), "CESM/CLOUD", "posit16")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if err := w.AppendShard(4, 8, trials); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("out-of-range bits: %v", err)
	}
	if err := w.AppendShard(12, 20, genTrials(t, "CESM/CLOUD", "posit16", 200, 1, 12, 16)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("range past the codec width: %v", err)
	}
	wrong := make([]core.Trial, 1)
	wrong[0] = trials[0]
	wrong[0].Codec = "ieee32"
	if err := w.AppendShard(0, 1, wrong); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mixed codec: %v", err)
	}
	if err := w.AppendShard(0, 4, trials[1:]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("%d rows over 4 bits: %v", len(trials)-1, err)
	}
	swapped := append([]core.Trial(nil), trials...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if err := w.AppendShard(0, 4, swapped); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("rows out of (bit, seq) order: %v", err)
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
// reconstructs core.AggregateByBit's result bit for bit.
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
	mustSameAggs(t, back.BitAggs(), core.AggregateByBit(trials))

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

// TestFooterAggregatesChecked re-seals a store's footer with edited
// aggregates and a recomputed CRC. Entries out of bit order or whose
// counts cannot add up fail Open; a well-formed entry that differs
// from its block's recomputed aggregate opens but fails Verify.
func TestFooterAggregatesChecked(t *testing.T) {
	trials := genTrials(t, "CESM/CLOUD", "posit16", 200, 3, 0, 16)
	dir := t.TempDir()
	path := filepath.Join(dir, "x.pts")
	writeStore(t, path, "CESM/CLOUD", "posit16", trials, 0, 16, 8)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	fd, dataEnd := r.fd, r.dataEnd
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// reseal writes orig with its footer rebuilt from edit's aggregates.
	reseal := func(edit func(a []core.BitAgg) []core.BitAgg) string {
		frame := appendFooter(nil, fd.headCRC, fd.blocks, fd.rows, edit(append([]core.BitAgg(nil), fd.aggs...)))
		buf := append(append([]byte(nil), orig[:dataEnd]...), frame...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(frame)))
		p := filepath.Join(dir, "edited.pts")
		if err := os.WriteFile(p, append(buf, endMagic...), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	// withShare returns a's field shares with name's share replaced.
	withShare := func(a core.BitAgg, name string, v float64) map[string]float64 {
		m := map[string]float64{name: v}
		for k, x := range a.FieldShare {
			if k != name {
				m[k] = x
			}
		}
		return m
	}
	cases := []struct {
		name       string
		edit       func(a []core.BitAgg) []core.BitAgg
		openFails  bool
		verifyFail bool
	}{
		{"unchanged", func(a []core.BitAgg) []core.BitAgg { return a }, false, false},
		{"bits out of order", func(a []core.BitAgg) []core.BitAgg { a[0], a[1] = a[1], a[0]; return a }, true, false},
		{"duplicate bit", func(a []core.BitAgg) []core.BitAgg { a[1].Bit = a[0].Bit; return a }, true, false},
		{"bit past the bound", func(a []core.BitAgg) []core.BitAgg { a[len(a)-1].Bit = maxFooterBits; return a }, true, false},
		{"catastrophic over trials", func(a []core.BitAgg) []core.BitAgg { a[2].Catastrophic = a[2].Trials + 1; return a }, true, false},
		{"trials off the row total", func(a []core.BitAgg) []core.BitAgg { a[3].Trials++; return a }, true, false},
		{"median one ulp off", func(a []core.BitAgg) []core.BitAgg {
			a[12].MedianRelErr = math.Nextafter(a[12].MedianRelErr, math.Inf(1))
			return a
		}, false, true},
		{"field share changed", func(a []core.BitAgg) []core.BitAgg {
			a[15].FieldShare = withShare(a[15], "sign", 0.5)
			return a
		}, false, true},
		{"trials moved between bits", func(a []core.BitAgg) []core.BitAgg { a[4].Trials++; a[5].Trials--; return a }, false, true},
		{"bit renumbered", func(a []core.BitAgg) []core.BitAgg { a[len(a)-1].Bit++; return a }, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := Open(reseal(tc.edit))
			if tc.openFails {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("Open: %v, want ErrCorrupt", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer r.Close()
			if err := r.Verify(); tc.verifyFail != errors.Is(err, ErrCorrupt) {
				t.Fatalf("Verify: %v, want ErrCorrupt: %v", err, tc.verifyFail)
			}
		})
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
	mustSameAggs(t, live, wantAggs)
	mustSameAggs(t, gotAggs, wantAggs)
}
