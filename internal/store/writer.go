package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"

	"positres/internal/atomicio"
	"positres/internal/core"
	"positres/internal/numfmt"
)

// blockInfo is one footer index entry: where a block's bytes live and
// which (bit range, row count) they carry, so a reader can serve rows
// in bit order and seek without scanning.
type blockInfo struct {
	Offset int64 // file offset of the block's length prefix
	Length int   // total block bytes (prefix + payload + CRC)
	Rows   int   // trial rows in the block
	BitLo  int   // first bit position covered (inclusive)
	BitHi  int   // one past the last bit position covered (exclusive)
}

// Writer builds one .pts file: a header, one columnar block per
// appended shard, and at Seal a footer indexing the blocks and
// carrying each bit's core.AggregateByBit result. All bytes stream
// through an atomicio.PendingFile, so the final path appears only on a
// successful Seal; Abort (or a crash) leaves at most a temp file.
// Writer is safe for concurrent use: appends encode and aggregate
// their own shard in parallel, and the lock orders only the file
// writes, the block index and the per-bit aggregates.
type Writer struct {
	mu      sync.Mutex
	pf      *atomicio.PendingFile
	path    string
	field   string
	codec   string
	headCRC uint32 // CRC-32 of the header bytes, sealed into the footer
	blocks  []blockInfo
	aggs    []core.BitAgg // ascending by bit
	rows    uint64
	done    bool  // sealed or aborted
	err     error // first write failure; sticky, forces Abort
}

// blockBufs recycles block encoding buffers across appends (of every
// writer), so concurrent appends each encode into their own scratch
// without a steady-state allocation per shard.
var blockBufs = sync.Pool{New: func() any { return new([]byte) }}

// NewWriter opens a pending store file at path for one (field, codec)
// pair and writes its header. codec must be registered in numfmt: a
// store holds only what a reader can recompute the rest of a trial
// from. Callers must finish with Seal or Abort.
func NewWriter(path, field, codec string) (*Writer, error) {
	if len(field) > maxStringLen || len(codec) > maxStringLen {
		return nil, fmt.Errorf("%w: field/codec name over %d bytes", ErrCorrupt, maxStringLen)
	}
	if _, err := numfmt.Lookup(codec); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	pf, err := atomicio.Create(path)
	if err != nil {
		return nil, err
	}
	w := &Writer{
		pf:    pf,
		path:  path,
		field: field,
		codec: codec,
	}
	hdr := append([]byte(fileMagic), Version)
	hdr = appendString(hdr, field)
	hdr = appendString(hdr, codec)
	w.headCRC = crc32.ChecksumIEEE(hdr)
	if _, err := pf.Write(hdr); err != nil {
		pf.Abort()
		return nil, fmt.Errorf("store: header %s: %w", path, err)
	}
	return w, nil
}

// Field returns the dataset field key the store holds.
func (w *Writer) Field() string { return w.field }

// Codec returns the number format the store holds.
func (w *Writer) Codec() string { return w.codec }

// Rows returns the trial rows appended so far.
func (w *Writer) Rows() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.rows
}

// AppendShard encodes one shard's trials as a block (AppendBlock) and
// aggregates them with core.AggregateByBit, both before taking the
// writer's lock, so appends of different shards run in parallel; the
// lock covers only the file write, the block index and installing the
// aggregates. The trials must carry the writer's (field, codec) and
// fill [bitLo, bitHi) evenly in (bit, seq) order (AppendBlock), and
// the range must not overlap a shard
// already appended: each bit's rows come from exactly one shard. A
// shard that violates this is refused with ErrCorrupt before any byte
// reaches the file. A failed write spends the writer: further appends
// fail and Seal aborts. AppendShard does not retain trials after it
// returns (the block and the aggregates are copies), so a caller may
// refill the slice with its next shard, as the runner's workers do.
func (w *Writer) AppendShard(bitLo, bitHi int, trials []core.Trial) error {
	bp := blockBufs.Get().(*[]byte)
	defer blockBufs.Put(bp)
	block, err := AppendBlock((*bp)[:0], w.field, w.codec, bitLo, bitHi, trials)
	*bp = block[:0] // keep the grown capacity even on error
	if err != nil {
		return err // encoding rejected the input; the file is still clean
	}
	aggs := core.AggregateByBit(trials)

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.done {
		return fmt.Errorf("%w: %s", ErrSealed, w.path)
	}
	if w.err != nil {
		return w.err
	}
	for _, b := range w.blocks {
		if bitLo < b.BitHi && b.BitLo < bitHi {
			return fmt.Errorf("%w: %s: shard bits [%d, %d) overlap appended bits [%d, %d)",
				ErrCorrupt, w.path, bitLo, bitHi, b.BitLo, b.BitHi)
		}
	}
	offset, err := w.pf.Offset()
	if err != nil {
		w.err = fmt.Errorf("store: offset %s: %w", w.path, err)
		return w.err
	}
	if _, err := w.pf.Write(block); err != nil {
		w.err = fmt.Errorf("store: block %s: %w", w.path, err)
		return w.err
	}
	w.blocks = append(w.blocks, blockInfo{
		Offset: offset,
		Length: len(block),
		Rows:   len(trials),
		BitLo:  bitLo,
		BitHi:  bitHi,
	})
	w.aggs = append(w.aggs, aggs...)
	sort.Slice(w.aggs, func(i, j int) bool { return w.aggs[i].Bit < w.aggs[j].Bit })
	w.rows += uint64(len(trials))
	return nil
}

// BitAggs snapshots the live per-bit aggregates, sorted by bit — the
// mid-campaign view /metrics serves. O(bits), never rescans trials.
// The FieldShare maps are the writer's own; callers must not modify
// them.
func (w *Writer) BitAggs() []core.BitAgg {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]core.BitAgg(nil), w.aggs...)
}

// Doc snapshots the live aggregates as an unsealed aggregate
// document.
func (w *Writer) Doc() *AggregateDoc {
	w.mu.Lock()
	defer w.mu.Unlock()
	return newDoc(w.field, w.codec, false, w.aggs)
}

// Seal writes the footer (block index + aggregates), the locating
// trailer, and commits the file to its final path. After Seal the
// writer is spent.
func (w *Writer) Seal() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.done {
		return fmt.Errorf("%w: %s", ErrSealed, w.path)
	}
	if w.err != nil {
		w.done = true
		w.pf.Abort()
		return w.err
	}
	w.done = true
	buf := appendFooter(nil, w.headCRC, w.blocks, w.rows, w.aggs)
	// Trailer: the footer frame's byte span plus the end magic, so a
	// reader finds the footer by seeking 8 bytes from EOF.
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(buf)))
	buf = append(buf, endMagic...)
	if _, err := w.pf.Write(buf); err != nil {
		w.pf.Abort()
		return fmt.Errorf("store: footer %s: %w", w.path, err)
	}
	return w.pf.Commit()
}

// Abort discards the pending file. Safe to call after Seal (no-op),
// so callers can defer it unconditionally.
func (w *Writer) Abort() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.done {
		return
	}
	w.done = true
	w.pf.Abort()
}
