package store

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"positres/internal/core"
	"positres/internal/numfmt"
)

// seedTrial returns a tiny shard for the fuzz seeds: two trials on
// each of posit16 bits 0 and 1, with a NaN and a negative-zero original
// among them, derived as a campaign derives them.
func seedTrial() []core.Trial {
	codec, err := numfmt.Lookup("posit16")
	if err != nil {
		panic(err)
	}
	d := core.NewDeriver(codec)
	rows := []struct {
		bit, seq, index int
		orig            float64
	}{{0, 0, 3, 0.5}, {0, 1, 9, 0.25}, {1, 0, 2, math.NaN()}, {1, 1, 7, math.Copysign(0, -1)}}
	trials := make([]core.Trial, len(rows))
	for i, r := range rows {
		trials[i] = core.Trial{Field: "CESM/CLOUD", Codec: "posit16", Bit: r.bit, Seq: r.seq, Index: r.index, OrigValue: r.orig}
		d.Fill(&trials[i])
	}
	return trials
}

// v2SeedBlockHex is seedTrial's shard as store Version 2 encoded it
// (every column stored, bit-field name table and meta byte included):
// a CRC-valid block of the right shard whose columns byte, 15, no
// Version 3 decoder reads.
const v2SeedBlockHex = `
e1000000505453420f000202086672616374696f6e06726567696d6504000001010001000103090207
807080608080020081708160828002020000020302020000000000000000e03f000000000000d03f01
0000000000f87f0000000000000080000000000000e03f000000000000d03f010000000000f87f0000
000000000000000000000002e03f000000000002d03f00000000000030c3000000000000b03c000000
000000303f000000000000203f010000000000f87f000000000000b03c000000000000403f00000000
0000403f010000000000f87f000000000000f07f84d571d8`

// readWholeFile and writeRawFile keep the fuzz body free of direct os
// calls at its hot path; test files are exempt from the atomicwrite
// rule, and fuzz scratch files are not publication points.
func readWholeFile(path string) ([]byte, error) { return os.ReadFile(path) }

func writeRawFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// footerSeed builds a realistic sealed footer frame for the fuzz
// corpus: two blocks and the aggregates of their trials, a
// catastrophic row and a NaN error among them.
func footerSeed() []byte {
	blocks := []blockInfo{
		{Offset: 16, Length: 34, Rows: 2, BitLo: 0, BitHi: 1},
		{Offset: 50, Length: 34, Rows: 2, BitLo: 1, BitHi: 2},
	}
	return appendFooter(nil, 0xDEADBEEF, blocks, 4, core.AggregateByBit(seedTrial()))
}

// FuzzFooterIndex hammers parseFooter with corrupted frames: whatever
// the bytes, it must return an error or a footer whose block index is
// fully bounds-checked and whose aggregates are ordered and add up —
// never panic, never index past the data region, never allocate
// unboundedly — and anything it accepts must re-encode to the same
// bytes. Wired into `make fuzz-short`.
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
		var trials uint64
		for i, a := range fd.aggs {
			if a.Catastrophic > a.Trials || a.Bit >= maxFooterBits || (i > 0 && a.Bit <= fd.aggs[i-1].Bit) {
				t.Fatalf("accepted malformed aggregate %d: %+v", i, a)
			}
			trials += uint64(a.Trials)
		}
		if trials != fd.rows {
			t.Fatalf("accepted aggregates of %d trials over %d rows", trials, fd.rows)
		}
		// One encoding per footer: what parses re-encodes to the same
		// bytes, which is what lets Verify compare entries as bytes.
		if again := appendFooter(nil, fd.headCRC, fd.blocks, fd.rows, fd.aggs); !bytes.Equal(again, frame) {
			t.Fatalf("accepted footer re-encodes differently:\n got %x\nwant %x", again, frame)
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
	v2Block, err := hex.DecodeString(strings.Join(strings.Fields(v2SeedBlockHex), ""))
	if err != nil {
		panic(err)
	}
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
		{"version 2 block", v2Block},
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
			if _, err := DecodeBlock(tc.data, "CESM/CLOUD", "posit16", 0, 2, 4); !errors.Is(err, ErrCorrupt) {
				t.Errorf("DecodeBlock: %v, want ErrCorrupt", err)
			}
			if _, _, err := ReadBlock(bytes.NewReader(tc.data), "CESM/CLOUD", "posit16", 0, 2, 4); !errors.Is(err, ErrCorrupt) {
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
	f.Add(good, 0, 2, 4)
	for _, d := range damagedBlocks(good) {
		f.Add(d.data, 0, 2, 4)
	}
	// A well-formed block for the wrong shard.
	f.Add(good, 0, 3, 6)
	f.Add(good, 0, 2, 1<<40)
	f.Add(good, 0, 64, 64)
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
