package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"positres/internal/core"
)

// The block is the one binary encoding of a shard's trials: a .pts
// file stores one per appended shard, POST /v1/shards answers with
// one, and each runner journal record carries one after its meta
// line. A block holds no (field, codec) identity — the file header,
// the shard request or the journal meta supplies it — so every
// decoder is told which shard it expects and refuses a block that
// covers another bit range or row count.

// AppendBlock appends the block encoding of one shard's trials to dst
// and returns the extended slice: a length prefix, the payload (magic,
// column count, bit range, bit-field name table, then each column
// contiguously) and the payload's CRC-32. Every trial must carry
// (field, codec) and a bit within [bitLo, bitHi) — the half-open shard
// range convention internal/runner uses — and the trials may use at
// most maxNames distinct bit-field names; violations are encoding
// errors, not silent corruption, and leave dst unchanged.
func AppendBlock(dst []byte, field, codec string, bitLo, bitHi int, trials []core.Trial) ([]byte, error) {
	if bitLo < 0 || bitHi <= bitLo || bitHi > math.MaxInt32 {
		return dst, fmt.Errorf("%w: bit range [%d, %d)", ErrCorrupt, bitLo, bitHi)
	}
	// First pass: shard invariants and the block's name vocabulary, in
	// first-use order. A handful of names (sign, regime, exponent,
	// fraction, mantissa) cover every format, so a linear scan beats a
	// map and the table stays on the stack.
	var nameBuf [8]string
	names := nameBuf[:0]
	for i := range trials {
		tr := &trials[i]
		if tr.Field != field || tr.Codec != codec {
			return dst, fmt.Errorf("%w: mixed (field, codec) in one block: (%s, %s) vs (%s, %s)",
				ErrCorrupt, tr.Field, tr.Codec, field, codec)
		}
		if tr.Bit < bitLo || tr.Bit >= bitHi {
			return dst, fmt.Errorf("%w: trial bit %d outside shard range [%d, %d)",
				ErrCorrupt, tr.Bit, bitLo, bitHi)
		}
		if nameIndex(names, tr.FieldName) < 0 {
			if len(names) >= maxNames {
				return dst, fmt.Errorf("%w: more than %d distinct bit-field names", ErrCorrupt, maxNames)
			}
			if len(tr.FieldName) > maxStringLen {
				return dst, fmt.Errorf("%w: bit-field name over %d bytes", ErrCorrupt, maxStringLen)
			}
			names = append(names, tr.FieldName)
		}
	}

	// Payload, then patch the length prefix and append the CRC.
	base := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length prefix placeholder
	p := len(dst)                 // payload start
	dst = append(dst, blockMagic...)
	dst = append(dst, byte(len(trialWireHeader)))
	dst = binary.AppendUvarint(dst, uint64(bitLo))
	dst = binary.AppendUvarint(dst, uint64(bitHi))
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for _, nm := range names {
		dst = appendString(dst, nm)
	}
	dst = binary.AppendUvarint(dst, uint64(len(trials)))
	for i := range trials {
		dst = binary.AppendUvarint(dst, uint64(trials[i].Bit))
	}
	for i := range trials {
		dst = binary.AppendUvarint(dst, uint64(trials[i].Seq))
	}
	for i := range trials {
		dst = binary.AppendUvarint(dst, uint64(trials[i].Index))
	}
	for i := range trials {
		dst = binary.AppendUvarint(dst, trials[i].OrigBits)
	}
	for i := range trials {
		dst = binary.AppendUvarint(dst, trials[i].FaultyBits)
	}
	for i := range trials {
		meta := byte(nameIndex(names, trials[i].FieldName)) << 1
		if trials[i].Catastrophic {
			meta |= 1
		}
		dst = append(dst, meta)
	}
	for i := range trials {
		dst = binary.AppendVarint(dst, int64(trials[i].RegimeK))
	}
	dst = appendFloatColumn(dst, trials, func(tr *core.Trial) float64 { return tr.OrigValue })
	dst = appendFloatColumn(dst, trials, func(tr *core.Trial) float64 { return tr.ReprValue })
	dst = appendFloatColumn(dst, trials, func(tr *core.Trial) float64 { return tr.FaultyVal })
	dst = appendFloatColumn(dst, trials, func(tr *core.Trial) float64 { return tr.AbsErr })
	dst = appendFloatColumn(dst, trials, func(tr *core.Trial) float64 { return tr.RelErr })
	crc := crc32.ChecksumIEEE(dst[p:])
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	binary.LittleEndian.PutUint32(dst[base:], uint32(len(dst)-p))
	return dst, nil
}

// nameIndex returns the position of name in names, or -1.
func nameIndex(names []string, name string) int {
	for j := range names {
		if names[j] == name {
			return j
		}
	}
	return -1
}

// appendFloatColumn appends one float64 column as raw little-endian
// bit patterns — lossless, including NaN payloads and signed zeros.
func appendFloatColumn(dst []byte, trials []core.Trial, get func(*core.Trial) float64) []byte {
	var fixed [8]byte
	for i := range trials {
		binary.LittleEndian.PutUint64(fixed[:], math.Float64bits(get(&trials[i])))
		dst = append(dst, fixed[:]...)
	}
	return dst
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

// appendDecoded is DecodeBlock appending into dst, so the Reader can
// reuse one trial slab across blocks.
func appendDecoded(dst []core.Trial, data []byte, field, codec string, bitLo, bitHi, rows int) ([]core.Trial, error) {
	if bitLo < 0 || bitHi <= bitLo || rows < 0 {
		return dst, fmt.Errorf("%w: expected shard [%d, %d) with %d rows", ErrCorrupt, bitLo, bitHi, rows)
	}
	payload, err := unwrapFrame(data, blockMagic)
	if err != nil {
		return dst, err
	}
	c := &cursor{buf: payload}
	if cols := c.byte(); c.err == nil && int(cols) != len(trialWireHeader) {
		return dst, fmt.Errorf("%w: block carries %d columns per row, this reader maps %d",
			ErrCorrupt, cols, len(trialWireHeader))
	}
	lo := c.intv()
	hi := c.intv()
	if c.err == nil && (lo != bitLo || hi != bitHi) {
		c.fail("block bit range [%d, %d), expected [%d, %d)", lo, hi, bitLo, bitHi)
	}
	nNames := c.uvarint()
	if c.err == nil && nNames > maxNames {
		c.fail("name table of %d entries exceeds %d", nNames, maxNames)
	}
	names := make([]string, 0, 8)
	for i := uint64(0); c.err == nil && i < nNames; i++ {
		nm := c.str()
		if c.err == nil && nameIndex(names, nm) >= 0 {
			c.fail("bit-field name %q listed twice", nm)
		}
		names = append(names, nm)
	}
	n := c.uvarint()
	if c.err == nil && n != uint64(rows) {
		c.fail("block declares %d rows, expected %d", n, rows)
	}
	// Each row costs at least 7 varint/meta bytes plus 40 fixed float
	// bytes across the columns; refuse impossible counts before
	// allocating.
	if c.err == nil {
		if remaining := uint64(len(c.buf) - c.off); n > remaining/47 {
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
	// Every field of every row is assigned by the column loops below,
	// so extending into reused capacity needs no zeroing.
	dst = dst[:need]
	out := dst[base:]
	for i := range out {
		tr := &out[i]
		tr.Field = field
		tr.Codec = codec
		tr.Bit = c.intv()
		if c.err == nil && (tr.Bit < bitLo || tr.Bit >= bitHi) {
			c.fail("row %d bit %d outside block range [%d, %d)", i, tr.Bit, bitLo, bitHi)
		}
	}
	for i := range out {
		out[i].Seq = c.intv()
	}
	for i := range out {
		out[i].Index = c.intv()
	}
	for i := range out {
		out[i].OrigBits = c.uvarint()
	}
	for i := range out {
		out[i].FaultyBits = c.uvarint()
	}
	// The encoder numbers names in first-use order; anything else
	// (an index skipping ahead, a name no row uses) is not its output.
	used := 0
	for i := range out {
		meta := c.byte()
		out[i].Catastrophic = meta&1 != 0
		idx := int(meta >> 1)
		if c.err != nil {
			continue
		}
		if idx > used || idx >= len(names) {
			c.fail("row %d bit-field name index %d out of first-use order (%d of %d named)", i, idx, used, len(names))
			continue
		}
		if idx == used {
			used++
		}
		out[i].FieldName = names[idx]
	}
	if c.err == nil && used != len(names) {
		c.fail("%d of %d bit-field names unused", len(names)-used, len(names))
	}
	for i := range out {
		out[i].RegimeK = c.varint()
	}
	for i := range out {
		out[i].OrigValue = c.float()
	}
	for i := range out {
		out[i].ReprValue = c.float()
	}
	for i := range out {
		out[i].FaultyVal = c.float()
	}
	for i := range out {
		out[i].AbsErr = c.float()
	}
	for i := range out {
		out[i].RelErr = c.float()
	}
	if c.err != nil {
		return dst[:base], c.err
	}
	if c.off != len(c.buf) {
		return dst[:base], fmt.Errorf("%w: %d trailing payload bytes after last column", ErrCorrupt, len(c.buf)-c.off)
	}
	return dst, nil
}
