package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"positres/internal/core"
)

// seedTrial returns a tiny hand-built shard for the fuzz seed store.
func seedTrial() []core.Trial {
	return []core.Trial{
		{Field: "CESM/CLOUD", Codec: "posit16", Bit: 0, Seq: 0, Index: 3,
			OrigValue: 0.5, ReprValue: 0.5, OrigBits: 0x4000, FaultyBits: 0xC000,
			FaultyVal: -0.5, FieldName: "sign", RegimeK: -1, AbsErr: 1, RelErr: 2},
		{Field: "CESM/CLOUD", Codec: "posit16", Bit: 1, Seq: 0, Index: 9,
			OrigValue: 0.25, ReprValue: 0.25, OrigBits: 0x3000, FaultyBits: 0x7000,
			FaultyVal: 16, FieldName: "regime", RegimeK: -2,
			AbsErr: 15.75, RelErr: 63, Catastrophic: true},
		{Field: "CESM/CLOUD", Codec: "posit16", Bit: 1, Seq: 1, Index: 2,
			OrigValue: math.NaN(), ReprValue: math.NaN(), OrigBits: 0x8000,
			FaultyBits: 0x8001, FaultyVal: math.NaN(), FieldName: "fraction",
			RegimeK: 0, AbsErr: math.NaN(), RelErr: math.NaN()},
	}
}

// readWholeFile and writeRawFile keep the fuzz body free of direct os
// calls at its hot path; test files are exempt from the atomicwrite
// rule, and fuzz scratch files are not publication points.
func readWholeFile(path string) ([]byte, error) { return os.ReadFile(path) }

func writeRawFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// footerSeed builds a realistic sealed footer frame for the fuzz
// corpus: two blocks, two bit aggregates with moments and sketches.
func footerSeed() []byte {
	bits := map[int]*bitState{}
	for b := 0; b < 2; b++ {
		st := newBitState()
		st.trials = 3
		st.catastrophic = 1
		st.fieldCounts["exponent"] = 2
		st.fieldCounts["fraction"] = 1
		st.rel.Add(0.25)
		st.rel.Add(3e-7)
		st.abs.Add(1.5)
		st.abs.Add(2e-3)
		st.relSumLog = -8.5
		st.relLogN = 2
		st.relSketch.Add(0.25)
		st.relSketch.Add(3e-7)
		st.absSketch.Add(1.5)
		st.absSketch.Add(2e-3)
		bits[b] = st
	}
	blocks := []blockInfo{
		{Offset: 16, Length: 120, Rows: 3, BitLo: 0, BitHi: 1},
		{Offset: 136, Length: 98, Rows: 3, BitLo: 1, BitHi: 2},
	}
	return appendFooter(nil, 0xDEADBEEF, blocks, 6, bits)
}

// FuzzFooterIndex hammers parseFooter with corrupted frames: whatever
// the bytes, it must return an error or a footer whose block index is
// fully bounds-checked — never panic, never index past the data
// region, never allocate unboundedly. Wired into `make fuzz-short`.
func FuzzFooterIndex(f *testing.F) {
	seed := footerSeed()
	f.Add(seed, int64(300))
	// Single-byte corruptions of the real frame make good starting
	// points: they keep the CRC landscape explorable.
	for _, off := range []int{0, 4, 8, len(seed) / 2, len(seed) - 5} {
		bad := append([]byte(nil), seed...)
		bad[off] ^= 0x40
		f.Add(bad, int64(300))
	}
	f.Add([]byte{}, int64(0))
	f.Add([]byte("PTSF"), int64(1))
	f.Fuzz(func(t *testing.T, frame []byte, dataEnd int64) {
		fd, err := parseFooter(frame, dataEnd)
		if err != nil {
			return
		}
		// Accepted frames must uphold the invariants readers rely on.
		var sum uint64
		for _, b := range fd.blocks {
			if b.Offset < 0 || b.Length < 0 || b.Offset+int64(b.Length) > dataEnd {
				t.Fatalf("accepted block outside data region: %+v (dataEnd %d)", b, dataEnd)
			}
			if b.BitHi <= b.BitLo || b.Rows < 0 {
				t.Fatalf("accepted malformed block: %+v", b)
			}
			sum += uint64(b.Rows)
		}
		if sum != fd.rows {
			t.Fatalf("accepted row count %d, block sum %d", fd.rows, sum)
		}
		for bit, st := range fd.bits {
			if st.catastrophic > st.trials {
				t.Fatalf("bit %d: accepted %d catastrophic of %d trials", bit, st.catastrophic, st.trials)
			}
		}
	})
}

// FuzzOpen hammers the whole-file open path: arbitrary bytes on disk
// must never panic the reader, and whatever opens must verify or fail
// cleanly.
func FuzzOpen(f *testing.F) {
	// Seed with a real sealed store.
	dir := f.TempDir()
	w, err := NewWriter(filepath.Join(dir, "seed.pts"), "CESM/CLOUD", "posit16")
	if err != nil {
		f.Fatal(err)
	}
	tr := seedTrial()
	if err := w.AppendShard(0, 2, tr); err != nil {
		f.Fatal(err)
	}
	if err := w.Seal(); err != nil {
		f.Fatal(err)
	}
	raw, err := readWholeFile(filepath.Join(dir, "seed.pts"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	for _, off := range []int{0, 5, len(raw) / 2, len(raw) - 6} {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0x10
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "f.pts")
		if err := writeRawFile(path, data); err != nil {
			t.Skip()
		}
		r, err := Open(path)
		if err != nil {
			return
		}
		defer func() { _ = r.Close() }() // best effort: fuzz scratch file
		if err := r.Verify(); err != nil {
			return
		}
		var buf bytes.Buffer
		_ = r.RenderCSV(&buf) // must not panic; errors are acceptable
	})
}

// damagedBlock is one class of damage a block reader must refuse.
type damagedBlock struct {
	name string
	data []byte
}

// damagedBlocks derives one variant of good per damage class: framing
// faults, single-bit flips, and CRC-valid encodings AppendBlock never
// produces.
func damagedBlocks(good []byte) []damagedBlock {
	flip := func(off int) []byte {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x04
		return bad
	}
	// edit rewrites a copy of the payload and frames it with a valid
	// length prefix and CRC.
	edit := func(f func(p []byte) []byte) []byte {
		return reframe(f(append([]byte(nil), good[4:len(good)-4]...)))
	}
	return []damagedBlock{
		{"empty input", nil},
		{"short prefix", good[:3]},
		{"length prefix below crc", []byte{3, 0, 0, 0, 'P', 'T', 'S'}},
		{"oversized declared length", append([]byte{0xff, 0xff, 0xff, 0xff}, good[4:]...)},
		{"truncated body", good[:len(good)/2]},
		{"truncated crc", good[:len(good)-2]},
		{"flipped payload bit", flip(len(good) / 2)},
		{"flipped crc bit", flip(len(good) - 2)},
		{"bad magic", edit(func(p []byte) []byte { p[0] = 'X'; return p })},
		{"column count skew", edit(func(p []byte) []byte { p[4]--; return p })},
		{"overlong varint", edit(func(p []byte) []byte {
			return append(append(append([]byte(nil), p[:5]...), 0x80, 0x00), p[6:]...) // bit_lo 0 in two bytes
		})},
		{"trailing byte", edit(func(p []byte) []byte { return append(p, 0) })},
	}
}

// TestDecodeDamagedBlocks requires both block readers to refuse every
// damage class with ErrCorrupt — never a panic, never trials.
func TestDecodeDamagedBlocks(t *testing.T) {
	good, err := AppendBlock(nil, "CESM/CLOUD", "posit16", 0, 2, seedTrial())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range damagedBlocks(good) {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeBlock(tc.data, "CESM/CLOUD", "posit16", 0, 2, 3); !errors.Is(err, ErrCorrupt) {
				t.Errorf("DecodeBlock: %v, want ErrCorrupt", err)
			}
			if _, _, err := ReadBlock(bytes.NewReader(tc.data), "CESM/CLOUD", "posit16", 0, 2, 3); !errors.Is(err, ErrCorrupt) {
				t.Errorf("ReadBlock: %v, want ErrCorrupt", err)
			}
		})
	}
}

// FuzzDecodeBlock hammers the block decoder — the one that reads shard
// responses off the network and journal records off disk — with
// arbitrary bytes and arbitrary expected shapes. Whatever the input,
// it must return an error or trials, never panic, never allocate more
// than a small multiple of the input, and anything it accepts must
// re-encode to exactly the same bytes. Wired into `make fuzz-short`.
func FuzzDecodeBlock(f *testing.F) {
	good, err := AppendBlock(nil, "CESM/CLOUD", "posit16", 0, 2, seedTrial())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good, 0, 2, 3)
	for _, d := range damagedBlocks(good) {
		f.Add(d.data, 0, 2, 3)
	}
	// A well-formed block for the wrong shard.
	f.Add(good, 0, 3, 3)
	f.Add(good, 0, 2, 1<<40)
	f.Fuzz(func(t *testing.T, data []byte, bitLo, bitHi, rows int) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		trials, err := DecodeBlock(data, "CESM/CLOUD", "posit16", bitLo, bitHi, rows)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(16*len(data)+1<<16) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		if err != nil {
			return
		}
		if len(trials) != rows {
			t.Fatalf("accepted %d trials, expected %d", len(trials), rows)
		}
		again, err := AppendBlock(nil, "CESM/CLOUD", "posit16", bitLo, bitHi, trials)
		if err != nil {
			t.Fatalf("re-encode of accepted trials failed: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted block re-encodes differently:\n got %x\nwant %x", again, data)
		}
	})
}

// reframe wraps a block payload in its length prefix and CRC.
func reframe(payload []byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)+4))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
}
