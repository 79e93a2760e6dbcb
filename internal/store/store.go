// Package store implements the append-only columnar trial store — the
// on-disk format that lets a campaign outgrow memory — and the block,
// the one binary encoding of a shard's trials. A .pts file holds every
// trial of one (field, codec) pair as one block per shard (varints for
// the integer columns, raw little-endian float64 bit patterns for the
// value columns), followed by a CRC-guarded footer that indexes the
// blocks and carries the campaign's online aggregates: count, mean,
// max and a mergeable quantile sketch per (field, bit), folded in at
// append time so a summary is O(fields×bits) regardless of trial
// count. The same block bytes travel on the positserve shard hop and
// fill the runner's journal records (AppendBlock, DecodeBlock,
// ReadBlock). docs/STORE.md is the normative format specification.
//
// The write path goes through internal/atomicio's PendingFile: blocks
// stream to a temporary file for the life of the campaign and the
// final .pts appears only when Seal lands the footer, so a crash
// leaves no torn store — the shard journal remains the recovery
// source of truth and a resumed campaign simply rebuilds the store
// from replayed shards.
//
// Reading back is lossless by construction: every float column stores
// the exact bit pattern, so RenderCSV reproduces core.WriteTrialsCSV
// byte for byte (pinned by test), and the per-bit aggregates off the
// footer match core.AggregateByBit exactly for count, mean, max,
// geometric mean and field shares (medians are sketch-approximate
// within SketchAlpha relative accuracy; means reassociate above
// internal/stats' parallel threshold).
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
)

// Version is the store format version this package writes. A reader
// rejects every other value with ErrVersion — compatibility is
// all-or-nothing per file (docs/STORE.md, "Compatibility policy"): a
// reader never guesses at a layout.
const Version = 1

// The four magics that structure a .pts file. Each spells its role so
// a hex dump is self-describing and a mis-routed payload fails fast.
const (
	fileMagic   = "PTSC" // file header: posit trial store, columnar
	blockMagic  = "PTSB" // one columnar block of shard trials
	footerMagic = "PTSF" // footer: block index + aggregates
	endMagic    = "PTSE" // 8-byte trailer locating the footer
)

// Ext is the store file extension.
const Ext = ".pts"

// MaxBlockBytes bounds the declared length of any block or footer
// frame a reader will honor (1 GiB): far above any real shard, small
// enough to refuse a corrupted length before allocating for it.
const MaxBlockBytes = 1 << 30

// maxStringLen bounds each packed string (bit-field names, the header
// field/codec pair); real values are tens of bytes.
const maxStringLen = 1 << 16

// maxNames bounds a block's bit-field name table: a row addresses its
// name with 7 bits of the meta byte.
const maxNames = 128

// Decode errors, one per failure class, matched with errors.Is. A
// damaged file or block is refused whole — a reader never serves rows
// from a block whose CRC does not match.
var (
	// ErrCorrupt means a magic, CRC, length or index in a file or
	// block is inconsistent with the format, or a block is not the
	// shard its reader expected.
	ErrCorrupt = errors.New("store: corrupt data")
	// ErrVersion means the file was written by an unsupported format
	// version.
	ErrVersion = errors.New("store: unsupported version")
	// ErrSealed means a write was attempted on a Writer that has
	// already sealed or aborted its file.
	ErrSealed = errors.New("store: writer already sealed")
)

// trialWireHeader is the logical column list of one trial row, in
// block column order. It deliberately mirrors core's CSV trialHeader
// — positlint's csvheader rule cross-checks both registries against
// core.Trial, so adding a Trial field without extending the block
// encoding fails tier-1.
var trialWireHeader = []string{
	"field", "codec", "bit", "seq", "index",
	"orig_value", "repr_value", "orig_bits", "faulty_bits", "faulty_value",
	"bit_field", "regime_k", "abs_err", "rel_err", "catastrophic",
}

// FileName returns the store file name for one (field, codec) pair —
// the same sanitization the CSV result files use (slashes in dataset
// field keys become underscores), with the .pts extension.
func FileName(field, codec string) string {
	return strings.ReplaceAll(field, "/", "_") + "_" + codec + Ext
}

// appendString appends a uvarint length followed by the string bytes.
func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// cursor is a bounds-checked sticky-error reader over one decoded
// region: the first failure sticks and turns every later read into a
// no-op, so column loops stay branch-light and check once per column.
// Varints must be minimal, as encoding/binary writes them, so every
// accepted region has exactly one encoding.
type cursor struct {
	buf []byte
	off int
	err error
}

// fail records the first error with positional context.
func (c *cursor) fail(format string, args ...interface{}) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: offset %d: %s", ErrCorrupt, c.off, fmt.Sprintf(format, args...))
	}
}

// byte reads one byte.
func (c *cursor) byte() byte {
	if c.err != nil {
		return 0
	}
	if c.off >= len(c.buf) {
		c.fail("unexpected end of data")
		return 0
	}
	b := c.buf[c.off]
	c.off++
	return b
}

// uvarint reads one unsigned varint.
func (c *cursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.buf[c.off:])
	if n <= 0 || (n > 1 && c.buf[c.off+n-1] == 0) {
		c.fail("bad uvarint")
		return 0
	}
	c.off += n
	return v
}

// varint reads one zigzag varint as an int.
func (c *cursor) varint() int {
	if c.err != nil {
		return 0
	}
	v, n := binary.Varint(c.buf[c.off:])
	if n <= 0 || (n > 1 && c.buf[c.off+n-1] == 0) {
		c.fail("bad varint")
		return 0
	}
	c.off += n
	return int(v)
}

// intv reads a uvarint that must fit a non-negative int32-sized int.
func (c *cursor) intv() int {
	v := c.uvarint()
	if c.err == nil && v > math.MaxInt32 {
		c.fail("value %d out of int range", v)
		return 0
	}
	return int(v)
}

// float reads one fixed-width little-endian float64 bit pattern.
func (c *cursor) float() float64 {
	if c.err != nil {
		return 0
	}
	if c.off+8 > len(c.buf) {
		c.fail("unexpected end of data in float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(c.buf[c.off:]))
	c.off += 8
	return v
}

// str reads one length-prefixed string.
func (c *cursor) str() string {
	n := c.uvarint()
	if c.err != nil {
		return ""
	}
	if n > maxStringLen {
		c.fail("string of %d bytes exceeds %d", n, maxStringLen)
		return ""
	}
	if c.off+int(n) > len(c.buf) {
		c.fail("string of %d bytes overruns data", n)
		return ""
	}
	s := string(c.buf[c.off : c.off+int(n)])
	c.off += int(n)
	return s
}
