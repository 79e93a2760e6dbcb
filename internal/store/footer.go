package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sort"

	"positres/internal/core"
)

// Footer sanity bounds: generous multiples of anything a real
// campaign produces, tight enough that a corrupted count cannot drive
// a giant allocation before validation fails.
const (
	maxFooterBlocks = 1 << 20 // shards per (field, codec)
	maxFooterBits   = 1 << 12 // bit positions per codec (real max: 64)
)

// footerData is the decoded footer: the block index plus the per-bit
// aggregates, everything a reader needs to serve rows in bit order and
// summaries in O(bits).
type footerData struct {
	headCRC uint32 // CRC-32 of the file header (magic..codec string)
	blocks  []blockInfo
	rows    uint64
	aggs    []core.BitAgg // ascending by bit
}

// appendFooter appends the framed footer — length prefix, payload
// (magic, header CRC, block index, total rows, aggregates by
// ascending bit), CRC-32 of the payload. headCRC backfills integrity
// for the header, which no frame of its own covers: a reader
// recomputes it over the header bytes it parsed, so a flipped bit in
// the (field, codec) identity fails Open instead of silently
// relabeling every row. aggs must be sorted by bit.
func appendFooter(dst []byte, headCRC uint32, blocks []blockInfo, rows uint64, aggs []core.BitAgg) []byte {
	base := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length prefix placeholder
	p := len(dst)                 // payload start
	dst = append(dst, footerMagic...)
	dst = binary.AppendUvarint(dst, uint64(headCRC))
	dst = binary.AppendUvarint(dst, uint64(len(blocks)))
	for _, b := range blocks {
		dst = binary.AppendUvarint(dst, uint64(b.Offset))
		dst = binary.AppendUvarint(dst, uint64(b.Length))
		dst = binary.AppendUvarint(dst, uint64(b.Rows))
		dst = binary.AppendUvarint(dst, uint64(b.BitLo))
		dst = binary.AppendUvarint(dst, uint64(b.BitHi))
	}
	dst = binary.AppendUvarint(dst, rows)
	dst = binary.AppendUvarint(dst, uint64(len(aggs)))
	for i := range aggs {
		dst = appendBitAgg(dst, &aggs[i])
	}
	crc := crc32.ChecksumIEEE(dst[p:])
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	binary.LittleEndian.PutUint32(dst[base:], uint32(len(dst)-p))
	return dst
}

// errorAggs lists a BitAgg's seven error aggregates in footer order —
// the one place that order is written down, for encoder and decoder.
func errorAggs(a *core.BitAgg) [7]*float64 {
	return [7]*float64{&a.MeanRelErr, &a.MedianRelErr, &a.GeoRelErr, &a.MaxRelErr,
		&a.MeanAbsErr, &a.MedianAbsErr, &a.MaxAbsErr}
}

// appendBitAgg appends one footer aggregate entry: bit, trials and
// catastrophic count, the seven error aggregates, then the field
// shares by sorted name. The encoding is canonical — equal aggregates,
// NaN payloads included, give equal bytes — which is what lets Verify
// compare entries byte for byte.
func appendBitAgg(dst []byte, a *core.BitAgg) []byte {
	dst = binary.AppendUvarint(dst, uint64(a.Bit))
	dst = binary.AppendUvarint(dst, uint64(a.Trials))
	dst = binary.AppendUvarint(dst, uint64(a.Catastrophic))
	for _, v := range errorAggs(a) {
		dst = appendFixedFloat(dst, *v)
	}
	names := make([]string, 0, len(a.FieldShare))
	for name := range a.FieldShare {
		names = append(names, name)
	}
	sort.Strings(names)
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for _, name := range names {
		dst = appendString(dst, name)
		dst = appendFixedFloat(dst, a.FieldShare[name])
	}
	return dst
}

// appendFixedFloat appends one float64 as its little-endian bit
// pattern — lossless, including NaN payloads and signed zeros.
func appendFixedFloat(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// unwrapFrame validates one complete length-prefixed CRC frame
// (exactly the bytes in data) opened by magic, returning the payload
// after the magic. The CRC is verified before any content is
// interpreted.
func unwrapFrame(data []byte, magic string) ([]byte, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("%w: %d bytes, need 4-byte length prefix", ErrCorrupt, len(data))
	}
	frameLen := binary.LittleEndian.Uint32(data)
	if frameLen > MaxBlockBytes {
		return nil, fmt.Errorf("%w: declared length %d exceeds %d", ErrCorrupt, frameLen, MaxBlockBytes)
	}
	if uint64(frameLen) != uint64(len(data)-4) {
		return nil, fmt.Errorf("%w: declared length %d, %d bytes present", ErrCorrupt, frameLen, len(data)-4)
	}
	if frameLen < uint32(4+len(magic)) {
		return nil, fmt.Errorf("%w: frame length %d below CRC and magic size", ErrCorrupt, frameLen)
	}
	payload := data[4 : len(data)-4]
	wantCRC := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return nil, fmt.Errorf("%w: crc32 %08x, frame announces %08x", ErrCorrupt, got, wantCRC)
	}
	if string(payload[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: magic %q, want %q", ErrCorrupt, payload[:len(magic)], magic)
	}
	return payload[len(magic):], nil
}

// parseFooter decodes a framed footer. dataEnd is the file offset
// where block bytes must end (the footer frame's own offset): every
// index entry is bounds-checked against it before any ReadAt, so a
// corrupted index cannot read past the data region or allocate
// unboundedly (FuzzFooterIndex pins this).
func parseFooter(frame []byte, dataEnd int64) (*footerData, error) {
	payload, err := unwrapFrame(frame, footerMagic)
	if err != nil {
		return nil, err
	}
	c := &cursor{buf: payload}
	headCRC := c.uvarint()
	if c.err == nil && headCRC > math.MaxUint32 {
		c.fail("header crc %d overflows 32 bits", headCRC)
	}
	nBlocks := c.uvarint()
	if c.err == nil && nBlocks > maxFooterBlocks {
		c.fail("block index of %d entries exceeds %d", nBlocks, maxFooterBlocks)
	}
	fd := &footerData{headCRC: uint32(headCRC)}
	var sumRows uint64
	for i := uint64(0); c.err == nil && i < nBlocks; i++ {
		var b blockInfo
		off := c.uvarint()
		if c.err == nil && off > math.MaxInt64 {
			c.fail("block %d offset %d overflows", i, off)
		}
		b.Offset = int64(off)
		b.Length = c.intv()
		b.Rows = c.intv()
		b.BitLo = c.intv()
		b.BitHi = c.intv()
		if c.err != nil {
			break
		}
		if b.Length > MaxBlockBytes {
			c.fail("block %d length %d exceeds %d", i, b.Length, MaxBlockBytes)
			break
		}
		if b.BitHi <= b.BitLo {
			c.fail("block %d bit range [%d, %d)", i, b.BitLo, b.BitHi)
			break
		}
		if b.Offset < int64(len(fileMagic))+1 || b.Offset+int64(b.Length) > dataEnd {
			c.fail("block %d span [%d, %d) outside data region [%d, %d)",
				i, b.Offset, b.Offset+int64(b.Length), len(fileMagic)+1, dataEnd)
			break
		}
		sumRows += uint64(b.Rows)
		fd.blocks = append(fd.blocks, b)
	}
	fd.rows = c.uvarint()
	if c.err == nil && fd.rows != sumRows {
		c.fail("footer declares %d rows, block index sums to %d", fd.rows, sumRows)
	}

	nBits := c.uvarint()
	if c.err == nil && nBits > maxFooterBits {
		c.fail("aggregate index of %d bits exceeds %d", nBits, maxFooterBits)
	}
	var sumTrials uint64
	for i := uint64(0); c.err == nil && i < nBits; i++ {
		a := core.BitAgg{Bit: c.intv(), Trials: c.intv(), Catastrophic: c.intv()}
		for _, v := range errorAggs(&a) {
			*v = c.float()
		}
		nNames := c.uvarint()
		switch { // c.fail keeps the first error, so a failed read wins
		case a.Bit >= maxFooterBits:
			c.fail("aggregate bit %d exceeds %d", a.Bit, maxFooterBits)
		case i > 0 && a.Bit <= fd.aggs[i-1].Bit:
			c.fail("aggregate bit %d follows bit %d", a.Bit, fd.aggs[i-1].Bit)
		case a.Catastrophic > a.Trials:
			c.fail("bit %d: %d catastrophic of %d trials", a.Bit, a.Catastrophic, a.Trials)
		case nNames > maxNames:
			c.fail("bit %d: name table of %d entries exceeds %d", a.Bit, nNames, maxNames)
		}
		if c.err != nil {
			break
		}
		a.FieldShare = make(map[string]float64, nNames)
		prev := ""
		for j := uint64(0); c.err == nil && j < nNames; j++ {
			name := c.str()
			if c.err == nil && j > 0 && name <= prev {
				c.fail("bit %d: field name %q follows %q", a.Bit, name, prev)
			}
			a.FieldShare[name] = c.float()
			prev = name
		}
		sumTrials += uint64(a.Trials)
		fd.aggs = append(fd.aggs, a)
	}
	if c.err == nil && sumTrials != fd.rows {
		c.fail("aggregates count %d trials, footer declares %d rows", sumTrials, fd.rows)
	}
	if c.err != nil {
		return nil, c.err
	}
	if c.off != len(c.buf) {
		return nil, fmt.Errorf("%w: %d trailing footer bytes", ErrCorrupt, len(c.buf)-c.off)
	}
	return fd, nil
}
