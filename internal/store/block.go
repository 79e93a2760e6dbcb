package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"positres/internal/core"
	"positres/internal/numfmt"
)

// The block is the one binary encoding of a shard's trials: a .pts
// file stores one per appended shard, POST /v1/shards answers with
// one, and each runner journal record carries one after its meta
// line. A block holds no (field, codec) identity — the file header,
// the shard request or the journal meta supplies it — so every
// decoder is told which shard it expects and refuses a block that
// covers another bit range or row count.
//
// A block stores only what cannot be recomputed: each row's element
// index and original value. Every producer appends a shard's rows in
// (bit, seq) order with the same number of trials per bit, so row i
// of a block over [bitLo, bitHi) with R rows is bit bitLo + i/t and
// seq i mod t, where t = R / (bitHi − bitLo); every other column is
// core.Deriver.Fill of (codec, bit, original value), rebuilt on decode.

// blockColumns is the number of stored columns, written after the
// block magic: index and orig_value.
const blockColumns = 2

// blockShape checks a shard shape against codec and returns the
// codec's Deriver and the trials per bit: the bit range must lie in
// the codec's width and rows must fill it evenly. Encoder and decoders
// share it, so a block is written only if it can be read back.
func blockShape(codec string, bitLo, bitHi, rows int) (core.Deriver, int, error) {
	c, err := numfmt.Lookup(codec)
	if err != nil {
		return core.Deriver{}, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if bitLo < 0 || bitHi <= bitLo || bitHi > c.Width() {
		return core.Deriver{}, 0, fmt.Errorf("%w: bit range [%d, %d) outside %d-bit %s", ErrCorrupt, bitLo, bitHi, c.Width(), codec)
	}
	if rows < 0 || rows%(bitHi-bitLo) != 0 {
		return core.Deriver{}, 0, fmt.Errorf("%w: %d rows do not fill bits [%d, %d) evenly", ErrCorrupt, rows, bitLo, bitHi)
	}
	return core.NewDeriver(c), rows / (bitHi - bitLo), nil
}

// AppendBlock appends the block encoding of one shard's trials to dst
// and returns the extended slice: a length prefix, the payload (magic,
// column count, bit range, row count, the index column, then the
// original values as float64 bit patterns) and the payload's CRC-32.
// codec must be registered in numfmt, every trial must carry (field,
// codec), and the trials must fill [bitLo, bitHi) — the half-open
// shard range convention internal/runner uses — evenly and in (bit,
// seq) order; violations are encoding errors, not silent corruption,
// and leave dst unchanged. The derived columns are not stored: a
// decoder recomputes them.
func AppendBlock(dst []byte, field, codec string, bitLo, bitHi int, trials []core.Trial) ([]byte, error) {
	_, perBit, err := blockShape(codec, bitLo, bitHi, len(trials))
	if err != nil {
		return dst, err
	}
	for i := range trials {
		tr := &trials[i]
		if tr.Field != field || tr.Codec != codec {
			return dst, fmt.Errorf("%w: mixed (field, codec) in one block: (%s, %s) vs (%s, %s)",
				ErrCorrupt, tr.Field, tr.Codec, field, codec)
		}
		if tr.Bit != bitLo+i/perBit || tr.Seq != i%perBit {
			return dst, fmt.Errorf("%w: row %d is (bit %d, seq %d), want (bit %d, seq %d)",
				ErrCorrupt, i, tr.Bit, tr.Seq, bitLo+i/perBit, i%perBit)
		}
	}

	// Payload, then patch the length prefix and append the CRC.
	base := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length prefix placeholder
	p := len(dst)                 // payload start
	dst = append(dst, blockMagic...)
	dst = append(dst, blockColumns)
	dst = binary.AppendUvarint(dst, uint64(bitLo))
	dst = binary.AppendUvarint(dst, uint64(bitHi))
	dst = binary.AppendUvarint(dst, uint64(len(trials)))
	for i := range trials {
		dst = binary.AppendUvarint(dst, uint64(trials[i].Index))
	}
	for i := range trials {
		dst = appendFixedFloat(dst, trials[i].OrigValue)
	}
	crc := crc32.ChecksumIEEE(dst[p:])
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	binary.LittleEndian.PutUint32(dst[base:], uint32(len(dst)-p))
	return dst, nil
}

// DecodeBlock decodes one complete block (exactly the bytes in data)
// into trials labelled (field, codec). It fails unless the block
// covers exactly [bitLo, bitHi) with exactly rows trials. The CRC is
// verified before any content is interpreted, the row count is
// bounded by the bytes present before anything is allocated, and only
// the encoding AppendBlock produces is accepted, so a decoded block
// re-encodes to the same bytes (FuzzDecodeBlock pins all three).
func DecodeBlock(data []byte, field, codec string, bitLo, bitHi, rows int) ([]core.Trial, error) {
	return appendDecoded(nil, data, field, codec, bitLo, bitHi, rows)
}

// ReadBlock reads one block from r — a shard response body — and
// decodes it as DecodeBlock does, also returning the bytes read. The
// declared length is checked against MaxBlockBytes before anything is
// buffered, and the buffer grows only as bytes arrive, so a corrupted
// length prefix cannot force a large allocation.
func ReadBlock(r io.Reader, field, codec string, bitLo, bitHi, rows int) ([]core.Trial, int64, error) {
	var prefix [4]byte
	if n, err := io.ReadFull(r, prefix[:]); err != nil {
		return nil, int64(n), fmt.Errorf("%w: block length prefix: %v", ErrCorrupt, err)
	}
	declared := binary.LittleEndian.Uint32(prefix[:])
	if declared > MaxBlockBytes {
		return nil, 4, fmt.Errorf("%w: declared length %d exceeds %d", ErrCorrupt, declared, MaxBlockBytes)
	}
	buf := bytes.NewBuffer(make([]byte, 0, 4+min(int(declared), 1<<16)))
	buf.Write(prefix[:])
	n, err := buf.ReadFrom(io.LimitReader(r, int64(declared)))
	if err != nil {
		return nil, 4 + n, fmt.Errorf("%w: block body: %v", ErrCorrupt, err)
	}
	// A short body fails DecodeBlock's length check.
	trials, err := DecodeBlock(buf.Bytes(), field, codec, bitLo, bitHi, rows)
	return trials, 4 + n, err
}

// minRowBytes is the fewest payload bytes a row can take: a one-byte
// index varint and an 8-byte original value.
const minRowBytes = 1 + 8

// appendDecoded is DecodeBlock appending into dst, so the Reader can
// reuse one trial slab across blocks. Each row's derived half is
// rebuilt through core.Deriver.Fill.
func appendDecoded(dst []core.Trial, data []byte, field, codec string, bitLo, bitHi, rows int) ([]core.Trial, error) {
	d, perBit, err := blockShape(codec, bitLo, bitHi, rows)
	if err != nil {
		return dst, err
	}
	payload, err := unwrapFrame(data, blockMagic)
	if err != nil {
		return dst, err
	}
	c := &cursor{buf: payload}
	if cols := c.byte(); c.err == nil && cols != blockColumns {
		return dst, fmt.Errorf("%w: block stores %d columns, this reader reads %d", ErrCorrupt, cols, blockColumns)
	}
	lo := c.intv()
	hi := c.intv()
	if c.err == nil && (lo != bitLo || hi != bitHi) {
		c.fail("block bit range [%d, %d), expected [%d, %d)", lo, hi, bitLo, bitHi)
	}
	n := c.uvarint()
	if c.err == nil && n != uint64(rows) {
		c.fail("block declares %d rows, expected %d", n, rows)
	}
	// Refuse impossible counts before allocating.
	if c.err == nil {
		if remaining := uint64(len(c.buf) - c.off); n > remaining/minRowBytes {
			c.fail("%d rows declared, %d payload bytes remain", n, remaining)
		}
	}
	if c.err != nil {
		return dst, c.err
	}
	base := len(dst)
	need := base + rows
	if cap(dst) < need {
		grown := make([]core.Trial, need)
		copy(grown, dst)
		dst = grown[:base]
	}
	// Every field of every row is assigned below, so extending into
	// reused capacity needs no zeroing.
	dst = dst[:need]
	out := dst[base:]
	for i := range out {
		out[i].Index = c.intv()
	}
	for i := range out {
		out[i].OrigValue = c.float()
	}
	if c.err != nil {
		return dst[:base], c.err
	}
	if c.off != len(c.buf) {
		return dst[:base], fmt.Errorf("%w: %d trailing payload bytes after last column", ErrCorrupt, len(c.buf)-c.off)
	}
	for i := range out {
		tr := &out[i]
		tr.Field = field
		tr.Codec = codec
		tr.Bit = bitLo + i/perBit
		tr.Seq = i % perBit
		d.Fill(tr)
	}
	return dst, nil
}
