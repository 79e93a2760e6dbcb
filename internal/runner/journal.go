package runner

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"positres/internal/atomicio"
	"positres/internal/core"
	"positres/internal/store"
)

// The journal is a directory of one record file per completed shard.
// Each record is written atomically (temp + fsync + rename via
// internal/atomicio) and carries a CRC over its entire body — the
// on-disk sibling of internal/checkpoint's CRC-guarded snapshots. A
// crash can therefore produce only two observable states per shard:
// a complete, verified record, or nothing. Torn or bit-rotted records
// fail the CRC and are treated as absent, so a resumed campaign
// recomputes exactly the missing work.
//
// Record layout (see docs/RESILIENCE.md):
//
//	line 1:  PJR2 <crc32-ieee hex of body> <body length in bytes>
//	body:    one JSON meta line (shard identity, campaign params,
//	         trial count, duration, attempts), then the shard's
//	         trials as one store block (store.AppendBlock).
//
// A record with any other magic (a PJR1 record, whose trials were
// CSV) fails to parse and is recomputed like a torn one, and so does a
// PJR2 record whose block an older store version wrote: the block
// decoder refuses any layout but its own.
const recordMagic = "PJR2"

// recordMeta is the self-describing header of a journal record.
type recordMeta struct {
	Shard      Shard          `json:"shard"`
	Campaign   campaignParams `json:"campaign"`
	Trials     int            `json:"trials"`
	DurationNS int64          `json:"duration_ns"`
	Attempts   int            `json:"attempts"`
}

// recordPath returns the journal file for a shard.
func recordPath(journalDir string, sh Shard) string {
	return filepath.Join(journalDir, sh.ID()+".rec")
}

// recordBufs recycles record body buffers across the journal writes
// of every shard worker, so each record encodes into scratch that
// already fits a shard instead of growing a fresh body from its meta
// line (the idiom of store's block buffers).
var recordBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeRecord journals a completed shard atomically.
func writeRecord(journalDir string, meta recordMeta, trials []core.Trial) error {
	line, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("runner: journal meta: %w", err)
	}
	bp := recordBufs.Get().(*[]byte)
	defer recordBufs.Put(bp)
	body := append(append((*bp)[:0], line...), '\n')
	sh := meta.Shard
	body, err = store.AppendBlock(body, sh.Field, sh.Codec, sh.BitLo, sh.BitHi, trials)
	*bp = body[:0] // keep the grown capacity even on error
	if err != nil {
		return fmt.Errorf("runner: journal payload: %w", err)
	}
	return atomicio.WriteFile(recordPath(journalDir, sh), func(w io.Writer) error {
		if _, err := fmt.Fprintf(w, "%s %08x %d\n", recordMagic, crc32.ChecksumIEEE(body), len(body)); err != nil {
			return err
		}
		_, err := w.Write(body)
		return err
	})
}

// readRecord loads and verifies one journal record. Any framing, CRC,
// length or parse failure is returned as an error; callers treat a bad
// record as "shard not done" and recompute it.
func readRecord(path string) (recordMeta, []core.Trial, error) {
	var meta recordMeta
	f, err := os.Open(path)
	if err != nil {
		return meta, nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	header, err := br.ReadString('\n')
	if err != nil {
		return meta, nil, fmt.Errorf("runner: record %s: header: %w", path, err)
	}
	var crc uint32
	var n int
	if _, err := fmt.Sscanf(header, recordMagic+" %08x %d\n", &crc, &n); err != nil {
		return meta, nil, fmt.Errorf("runner: record %s: bad header %q", path, header)
	}
	// A record must end exactly where its header says. Checking the
	// declared length against the bytes the file holds before
	// allocating makes a torn, negative or huge length a bad record
	// rather than a panic or a giant allocation.
	info, err := f.Stat()
	if err != nil {
		return meta, nil, fmt.Errorf("runner: record %s: %w", path, err)
	}
	if held := info.Size() - int64(len(header)); int64(n) != held {
		return meta, nil, fmt.Errorf("runner: record %s: header declares a %d-byte body, file holds %d", path, n, held)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(br, body); err != nil {
		return meta, nil, fmt.Errorf("runner: record %s: truncated body: %w", path, err)
	}
	if got := crc32.ChecksumIEEE(body); got != crc {
		return meta, nil, fmt.Errorf("runner: record %s: crc mismatch (have %08x, want %08x)", path, got, crc)
	}
	nl := bytes.IndexByte(body, '\n')
	if nl < 0 {
		return meta, nil, fmt.Errorf("runner: record %s: missing meta line", path)
	}
	if err := json.Unmarshal(body[:nl], &meta); err != nil {
		return meta, nil, fmt.Errorf("runner: record %s: meta: %w", path, err)
	}
	sh := meta.Shard
	trials, err := store.DecodeBlock(body[nl+1:], sh.Field, sh.Codec, sh.BitLo, sh.BitHi, meta.Trials)
	if err != nil {
		return meta, nil, fmt.Errorf("runner: record %s: payload: %w", path, err)
	}
	return meta, trials, nil
}
