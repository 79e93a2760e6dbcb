package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"positres/internal/qcat"
)

// flipSpaceDigests pins the derived half of every (pattern, bit) pair
// of the four formats narrow enough to enumerate — 3,147,776 pairs in
// all. Each value is the SHA-256 of the canonical rows appendPinRow
// writes, in (pattern, bit) order, with the decoded pattern as the
// error baseline. The digests were computed through the codec methods
// directly (Decode, bitflip.Flip, FieldAt, RegimeK and qcat.Point),
// before any of that moved behind Deriver.
//
// A store block keeps no derived column, so a change to a decode tier,
// to field classification or to error arithmetic would silently change
// how every existing store renders; this test makes such a change fail
// instead. If a change is intended, it changes the meaning of stored
// data: bump store.Version with it, then re-pin.
var flipSpaceDigests = []struct {
	codec  string
	pairs  int
	digest string
}{
	{"posit8", 1 << 8 * 8, "fe805c60444bbcfa0338126ee49a3f01634bfff664e9283f636231e7ba330f16"},
	{"posit16", 1 << 16 * 16, "364f48185f0bc33e15bea8c6b877bb621fa52909cfb6b968a7e8909d783460cc"},
	{"ieee16", 1 << 16 * 16, "2de6d38b24323e5f0c45a2096f1c4270dfeca14f2e7ad31d54a3457918074080"},
	{"bfloat16", 1 << 16 * 16, "4fbea2104edb9af277421597b9694f75e58fb11db02d44b47e1fe1d614a70574"},
}

// appendPinRow appends one canonical row: pattern (u64le), bit (u8),
// faulty pattern (u64le), field name (u8 length + bytes), regime k
// (i64le), the float64 bits of the absolute and relative errors
// (u64le each) and the catastrophic flag (u8).
func appendPinRow(dst []byte, pattern uint64, bit int, f Flip, p qcat.PointErr) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, pattern)
	dst = append(dst, byte(bit))
	dst = binary.LittleEndian.AppendUint64(dst, f.FaultyBits)
	dst = append(dst, byte(len(f.FieldName)))
	dst = append(dst, f.FieldName...)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(f.RegimeK)))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.AbsErr))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.RelErr))
	cat := byte(0)
	if p.Catastrophic {
		cat = 1
	}
	return append(dst, cat)
}

// TestFromPatternPinsSmallFlipSpaces runs Deriver.FromPattern over
// every (pattern, bit) pair of posit8, posit16, ieee16 and bfloat16
// and compares each format's row digest with its pin.
func TestFromPatternPinsSmallFlipSpaces(t *testing.T) {
	for _, pin := range flipSpaceDigests {
		t.Run(pin.codec, func(t *testing.T) {
			codec := mustCodec(t, pin.codec)
			d := NewDeriver(codec)
			w := codec.Width()
			h := sha256.New()
			var row []byte
			pairs := 0
			for pattern := uint64(0); pattern < 1<<uint(w); pattern++ {
				for bit := 0; bit < w; bit++ {
					f := d.FromPattern(pattern, bit)
					row = appendPinRow(row[:0], pattern, bit, f, qcat.Point(f.ReprValue, f.FaultyVal))
					h.Write(row)
					pairs++
				}
			}
			if pairs != pin.pairs {
				t.Fatalf("%d pairs, want %d", pairs, pin.pairs)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != pin.digest {
				t.Fatalf("flip-space digest %s, pinned %s: decode, field classification or error arithmetic changed", got, pin.digest)
			}
		})
	}
}
