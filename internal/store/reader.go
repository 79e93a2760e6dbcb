package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"

	"positres/internal/core"
)

// Reader serves a sealed .pts file: rows in bit order (rendered as
// CSV byte-identical to core.WriteTrialsCSV), and the footer's
// aggregates in O(bits) without touching a single trial row. Open
// validates the header, trailer and footer CRC up front; block CRCs
// are verified as each block is read.
type Reader struct {
	f       *os.File
	field   string
	codec   string
	dataEnd int64 // file offset where the footer frame begins
	fd      *footerData
}

// Open opens and validates a sealed store file.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	r, err := newReader(f)
	if err != nil {
		_ = f.Close() // best effort: the validation error is the one worth reporting
		return nil, fmt.Errorf("store: open %s: %w", path, err)
	}
	return r, nil
}

// newReader validates header, trailer and footer of an open file.
func newReader(f *os.File) (*Reader, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	// Header: magic, version, then the (field, codec) strings. Their
	// combined length is bounded, so one capped read covers it.
	headMax := int64(len(fileMagic) + 1 + 2*(binary.MaxVarintLen64+maxStringLen))
	if headMax > size {
		headMax = size
	}
	head := make([]byte, headMax)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, headMax), head); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrCorrupt, err)
	}
	if len(head) < len(fileMagic)+1 {
		return nil, fmt.Errorf("%w: %d-byte file below header size", ErrCorrupt, size)
	}
	if string(head[:len(fileMagic)]) != fileMagic {
		return nil, fmt.Errorf("%w: magic %q, want %q", ErrCorrupt, head[:len(fileMagic)], fileMagic)
	}
	if v := head[len(fileMagic)]; v != Version {
		return nil, fmt.Errorf("%w: file version %d, this reader speaks %d", ErrVersion, v, Version)
	}
	c := &cursor{buf: head, off: len(fileMagic) + 1}
	field := c.str()
	codec := c.str()
	if c.err != nil {
		return nil, c.err
	}

	// Trailer: footer frame span + end magic in the last 8 bytes.
	if size < int64(c.off)+8 {
		return nil, fmt.Errorf("%w: %d-byte file has no room for a trailer", ErrCorrupt, size)
	}
	var trailer [8]byte
	if _, err := f.ReadAt(trailer[:], size-8); err != nil {
		return nil, fmt.Errorf("%w: trailer: %v", ErrCorrupt, err)
	}
	if string(trailer[4:]) != endMagic {
		return nil, fmt.Errorf("%w: trailer magic %q, want %q (file not sealed?)", ErrCorrupt, trailer[4:], endMagic)
	}
	span := int64(binary.LittleEndian.Uint32(trailer[:4]))
	if span > MaxBlockBytes || size-8-span < int64(c.off) {
		return nil, fmt.Errorf("%w: footer span %d does not fit the %d-byte file", ErrCorrupt, span, size)
	}
	dataEnd := size - 8 - span
	frame := make([]byte, span)
	if _, err := f.ReadAt(frame, dataEnd); err != nil {
		return nil, fmt.Errorf("%w: footer: %v", ErrCorrupt, err)
	}
	fd, err := parseFooter(frame, dataEnd)
	if err != nil {
		return nil, err
	}
	// The header has no frame of its own; the footer carries its CRC.
	if got := crc32.ChecksumIEEE(head[:c.off]); got != fd.headCRC {
		return nil, fmt.Errorf("%w: header crc32 %08x, footer recorded %08x", ErrCorrupt, got, fd.headCRC)
	}
	return &Reader{f: f, field: field, codec: codec, dataEnd: dataEnd, fd: fd}, nil
}

// Close releases the underlying file.
func (r *Reader) Close() error { return r.f.Close() }

// Field returns the dataset field key the store holds.
func (r *Reader) Field() string { return r.field }

// Codec returns the number format the store holds.
func (r *Reader) Codec() string { return r.codec }

// Rows returns the total trial rows in the store.
func (r *Reader) Rows() uint64 { return r.fd.rows }

// Blocks returns the number of columnar blocks (one per shard).
func (r *Reader) Blocks() int { return len(r.fd.blocks) }

// BitAggs returns the footer's aggregates sorted by bit — O(bits), no
// trial rescan. Each is core.AggregateByBit over the bit's trials, bit
// for bit, medians included (Verify checks this against the blocks).
// The FieldShare maps are the reader's own; callers must not modify
// them.
func (r *Reader) BitAggs() []core.BitAgg { return append([]core.BitAgg(nil), r.fd.aggs...) }

// Doc builds the sealed aggregate document from the footer.
func (r *Reader) Doc() *AggregateDoc {
	return newDoc(r.field, r.codec, true, r.fd.aggs)
}

// bitOrder returns the block index sorted by ascending BitLo — the
// order a direct core.RunRange over the whole bit range produces
// trials in, which is what keeps rendered CSV byte-identical to it.
func (r *Reader) bitOrder() []blockInfo {
	blocks := make([]blockInfo, len(r.fd.blocks))
	copy(blocks, r.fd.blocks)
	sort.Slice(blocks, func(i, j int) bool {
		if blocks[i].BitLo != blocks[j].BitLo {
			return blocks[i].BitLo < blocks[j].BitLo
		}
		return blocks[i].Offset < blocks[j].Offset
	})
	return blocks
}

// readBlock reads and decodes one block, appending its trials to dst.
// buf is the reusable raw-byte scratch; both grown slices return.
func (r *Reader) readBlock(b blockInfo, buf []byte, dst []core.Trial) ([]byte, []core.Trial, error) {
	if cap(buf) < b.Length {
		buf = make([]byte, b.Length)
	}
	buf = buf[:b.Length]
	if _, err := r.f.ReadAt(buf, b.Offset); err != nil {
		return buf, dst, fmt.Errorf("%w: block at %d: %v", ErrCorrupt, b.Offset, err)
	}
	dst, err := appendDecoded(dst, buf, r.field, r.codec, b.BitLo, b.BitHi, b.Rows)
	return buf, dst, err
}

// RenderCSV streams the store's rows to w as CSV, byte-identical to
// core.WriteTrialsCSV over the same trials in bit order (blocks by
// ascending bit range, rows in stored order within each block).
// Memory is bounded by the largest single block, not the campaign.
func (r *Reader) RenderCSV(w io.Writer) error {
	out := make([]byte, 0, core.CSVFlushAt+512)
	out = core.AppendTrialHeader(out)
	var raw []byte
	var trials []core.Trial
	var err error
	for _, b := range r.bitOrder() {
		trials = trials[:0]
		raw, trials, err = r.readBlock(b, raw, trials)
		if err != nil {
			return err
		}
		for i := range trials {
			out = core.AppendTrialRow(out, &trials[i])
			if len(out) >= core.CSVFlushAt {
				if _, err := w.Write(out); err != nil {
					return fmt.Errorf("store: csv render: %w", err)
				}
				out = out[:0]
			}
		}
	}
	if len(out) > 0 {
		if _, err := w.Write(out); err != nil {
			return fmt.Errorf("store: csv flush: %w", err)
		}
	}
	return nil
}

// Trials materializes every row in bit order — the convenience
// path for offline tooling on modest stores; campaign-scale callers
// should stream with RenderCSV or read aggregates instead.
func (r *Reader) Trials() ([]core.Trial, error) {
	trials := make([]core.Trial, 0, r.fd.rows)
	var raw []byte
	var err error
	for _, b := range r.bitOrder() {
		raw, trials, err = r.readBlock(b, raw, trials)
		if err != nil {
			return nil, err
		}
	}
	return trials, nil
}

// Verify decodes every block, checking each CRC and every structural
// invariant, and recomputes each block's per-bit aggregates with
// core.AggregateByBit: every footer entry must equal its bit's
// recomputed aggregate exactly, and every block bit must have one.
// It is the deep-scan behind positstore's verify command; Open
// already checked the footer's own CRC and bounds.
func (r *Reader) Verify() error {
	footer := make(map[int][]byte, len(r.fd.aggs))
	for i := range r.fd.aggs {
		footer[r.fd.aggs[i].Bit] = appendBitAgg(nil, &r.fd.aggs[i])
	}
	var raw []byte
	var trials []core.Trial
	var err error
	for _, b := range r.fd.blocks {
		trials = trials[:0]
		raw, trials, err = r.readBlock(b, raw, trials)
		if err != nil {
			return err
		}
		for _, a := range core.AggregateByBit(trials) {
			want, ok := footer[a.Bit]
			if !ok || !bytes.Equal(appendBitAgg(nil, &a), want) {
				return fmt.Errorf("%w: bit %d: footer aggregate differs from the block at offset %d", ErrCorrupt, a.Bit, b.Offset)
			}
			delete(footer, a.Bit) // a second block with this bit fails above
		}
	}
	if len(footer) > 0 {
		return fmt.Errorf("%w: footer aggregates %d bits no block holds", ErrCorrupt, len(footer))
	}
	return nil
}
