package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"

	"positres/internal/atomicio"
	"positres/internal/core"
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
// carrying the online aggregates. All bytes stream through an
// atomicio.PendingFile, so the final path appears only on a
// successful Seal; Abort (or a crash) leaves at most a temp file.
// Writer is safe for concurrent use; the aggregates fold under the
// same lock that orders the blocks.
type Writer struct {
	mu      sync.Mutex
	pf      *atomicio.PendingFile
	path    string
	field   string
	codec   string
	headCRC uint32 // CRC-32 of the header bytes, sealed into the footer
	blocks  []blockInfo
	bits    map[int]*bitState
	rows    uint64
	done    bool  // sealed or aborted
	err     error // first write failure; sticky, forces Abort

	// Scratch reused across AppendShard calls so the steady-state
	// append path stays allocation-free.
	buf []byte
}

// NewWriter opens a pending store file at path for one (field, codec)
// pair and writes its header. Callers must finish with Seal or Abort.
func NewWriter(path, field, codec string) (*Writer, error) {
	if len(field) > maxStringLen || len(codec) > maxStringLen {
		return nil, fmt.Errorf("%w: field/codec name over %d bytes", ErrCorrupt, maxStringLen)
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
		bits:  map[int]*bitState{},
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
// folds them into the per-bit aggregates. Every trial must carry the
// writer's (field, codec) and a bit within [bitLo, bitHi); a shard
// that violates this is refused before any byte reaches the file. A
// failed write spends the writer: further appends fail and Seal
// aborts.
func (w *Writer) AppendShard(bitLo, bitHi int, trials []core.Trial) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.done {
		return fmt.Errorf("%w: %s", ErrSealed, w.path)
	}
	if w.err != nil {
		return w.err
	}
	offset, err := w.pf.Offset()
	if err != nil {
		w.err = fmt.Errorf("store: offset %s: %w", w.path, err)
		return w.err
	}
	buf, err := AppendBlock(w.buf[:0], w.field, w.codec, bitLo, bitHi, trials)
	w.buf = buf[:0] // keep the grown capacity even on error
	if err != nil {
		return err // encoding rejected the input; the file is still clean
	}
	if _, err := w.pf.Write(buf); err != nil {
		w.err = fmt.Errorf("store: block %s: %w", w.path, err)
		return w.err
	}
	w.blocks = append(w.blocks, blockInfo{
		Offset: offset,
		Length: len(buf),
		Rows:   len(trials),
		BitLo:  bitLo,
		BitHi:  bitHi,
	})
	for i := range trials {
		tr := &trials[i]
		st := w.bits[tr.Bit]
		if st == nil {
			st = newBitState()
			w.bits[tr.Bit] = st
		}
		st.fold(tr)
	}
	w.rows += uint64(len(trials))
	return nil
}

// BitAggs snapshots the live per-bit aggregates, sorted by bit — the
// mid-campaign view /metrics serves. O(bits), never rescans trials.
func (w *Writer) BitAggs() []core.BitAgg {
	w.mu.Lock()
	defer w.mu.Unlock()
	return finalizeBits(w.bits)
}

// Doc snapshots the live aggregates as an unsealed aggregate
// document.
func (w *Writer) Doc() *AggregateDoc {
	w.mu.Lock()
	defer w.mu.Unlock()
	return newDoc(w.field, w.codec, false, finalizeBits(w.bits))
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
	buf := appendFooter(w.buf[:0], w.headCRC, w.blocks, w.rows, w.bits)
	w.buf = buf[:0]
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
