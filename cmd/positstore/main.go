// Command positstore inspects and exercises columnar .pts trial
// stores (docs/STORE.md).
//
// Usage:
//
//	positstore cat FILE.pts              # stream the rows as CSV
//	positstore agg FILE.pts              # print the positres-aggregate/v1 JSON
//	positstore verify FILE.pts ...       # full-file CRC and aggregate verification
//	positstore smoke [flags]             # bounded-memory equivalence check
//
// smoke is the CI driver for the store's core guarantees: a campaign
// streamed shard by shard into a store renders CSV byte-identical
// (SHA-256-compared) to the direct core.WriteTrialsCSV path, the
// footer aggregates pass Verify (each equals core.AggregateByBit over
// its block) and form a valid aggregate document, and the memory all
// of that takes is set by a few shard-sized buffers, not by the
// campaign: the process's peak resident set (VmHWM in
// /proc/self/status) must stay below half of what the campaign's
// trials would take materialized. CI runs it over 10⁷ trials.
//
// Exit codes: 0 ok; 1 failure; 2 usage.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
	"unsafe"

	"positres/internal/core"
	"positres/internal/numfmt"
	"positres/internal/sdrbench"
	"positres/internal/store"
	"positres/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	if len(args) == 0 {
		usage()
		return 2
	}
	var err error
	switch args[0] {
	case "cat":
		err = catCmd(args[1:])
	case "agg":
		err = aggCmd(args[1:])
	case "verify":
		err = verifyCmd(args[1:])
	case "smoke":
		err = smokeCmd(args[1:])
	default:
		usage()
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "positstore:", err)
		return 1
	}
	return 0
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: positstore <cat|agg|verify|smoke> ...
  cat FILE.pts            stream the trial rows as CSV on stdout
  agg FILE.pts            print the aggregate summary document as JSON
  verify FILE.pts ...     verify every CRC in each file
  smoke [flags]           bounded-memory store-vs-direct equivalence check`)
}

// withReader opens one store argument and hands it to fn, closing on
// every path.
func withReader(args []string, fn func(*store.Reader) error) error {
	if len(args) != 1 {
		return fmt.Errorf("expected exactly one FILE.pts argument")
	}
	rd, err := store.Open(args[0])
	if err != nil {
		return err
	}
	if err := fn(rd); err != nil {
		_ = rd.Close()
		return err
	}
	return rd.Close()
}

// catCmd renders the store's rows as CSV on stdout — byte-identical
// to what core.WriteTrialsCSV would emit for the same trials.
func catCmd(args []string) error {
	return withReader(args, func(rd *store.Reader) error {
		return rd.RenderCSV(os.Stdout)
	})
}

// aggCmd prints the store's aggregate document as indented JSON.
func aggCmd(args []string) error {
	return withReader(args, func(rd *store.Reader) error {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rd.Doc())
	})
}

// verifyCmd runs Reader.Verify over each file — every block CRC, and
// every footer aggregate against its block — reporting per-file.
func verifyCmd(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("expected FILE.pts arguments")
	}
	for _, path := range args {
		rd, err := store.Open(path)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		verr := rd.Verify()
		rows, blocks := rd.Rows(), rd.Blocks()
		if cerr := rd.Close(); cerr != nil && verr == nil {
			verr = cerr
		}
		if verr != nil {
			return fmt.Errorf("%s: %w", path, verr)
		}
		fmt.Printf("%s: ok (%d rows, %d blocks)\n", path, rows, blocks)
	}
	return nil
}

// smokeCmd streams one (field, format) campaign into a store shard by
// shard while hashing the direct CSV encoding of the same trials, then
// verifies the store, compares its rendered CSV against the hash,
// validates the aggregate document and checks the process's peak
// resident set against half the campaign's materialized size. Peak
// trial residency is one shard, so the whole check runs in bounded
// memory regardless of -trials.
func smokeCmd(args []string) error {
	fs := flag.NewFlagSet("smoke", flag.ExitOnError)
	var (
		field        = fs.String("field", "CESM/CLOUD", "sdrbench field key")
		format       = fs.String("format", "posit16", "number format")
		n            = fs.Int("n", 100_000, "synthetic elements")
		trials       = fs.Int("trials", 1000, "trials per bit position")
		bitsPerShard = fs.Int("bits-per-shard", 1, "bit positions per appended shard")
		seed         = fs.Uint64("seed", 1, "campaign seed")
		dir          = fs.String("dir", "", "working directory (default: a temp dir)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	codec, err := numfmt.Lookup(*format)
	if err != nil {
		return err
	}
	f, err := sdrbench.Lookup(*field)
	if err != nil {
		return err
	}
	data := sdrbench.ToFloat64(f.Generate(*n, *seed))

	workDir := *dir
	if workDir == "" {
		workDir, err = os.MkdirTemp("", "positstore-smoke-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(workDir)
	}
	path := filepath.Join(workDir, store.FileName(*field, *format))

	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	cfg.TrialsPerBit = *trials
	cfg.Workers = 1 // serial: the deterministic zero-alloc campaign loop

	w, err := store.NewWriter(path, *field, *format)
	if err != nil {
		return err
	}
	defer w.Abort()

	directHash := sha256.New()
	rowBuf := core.AppendTrialHeader(nil)
	if _, err := directHash.Write(rowBuf); err != nil {
		return err
	}
	var shard []core.Trial
	width := codec.Width()
	totalRows := uint64(0)
	start := time.Now()
	for lo := 0; lo < width; lo += *bitsPerShard {
		hi := lo + *bitsPerShard
		if hi > width {
			hi = width
		}
		shard, err = core.RunRangeInto(context.Background(), cfg, codec, *field, data, lo, hi, shard[:0])
		if err != nil {
			return err
		}
		if err := w.AppendShard(lo, hi, shard); err != nil {
			return err
		}
		for i := range shard {
			rowBuf = core.AppendTrialRow(rowBuf[:0], &shard[i])
			if _, err := directHash.Write(rowBuf); err != nil {
				return err
			}
		}
		totalRows += uint64(len(shard))
	}
	if err := w.Seal(); err != nil {
		return err
	}

	rd, err := store.Open(path)
	if err != nil {
		return err
	}
	defer rd.Close()
	if err := rd.Verify(); err != nil {
		return err
	}
	storeHash := sha256.New()
	if err := rd.RenderCSV(storeHash); err != nil {
		return err
	}
	want, got := directHash.Sum(nil), storeHash.Sum(nil)
	if string(want) != string(got) {
		return fmt.Errorf("store CSV diverges from the direct path: sha256 %x, want %x", got, want)
	}

	// The aggregate document must survive its own serialization and
	// describe exactly the campaign that ran.
	doc := rd.Doc()
	raw, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	reread, err := store.ReadDoc(bytes.NewReader(raw))
	if err != nil {
		return fmt.Errorf("aggregate document round-trip: %w", err)
	}
	if reread.Trials != totalRows || !reread.Sealed || len(reread.Bits) != width {
		return fmt.Errorf("aggregate document mismatch: %d trials over %d bits (sealed=%v), want %d over %d",
			reread.Trials, len(reread.Bits), reread.Sealed, totalRows, width)
	}

	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	// Memory: a few shard-sized buffers (the shard slab, its block, the
	// render's decoded block), never the campaign.
	materialized := totalRows * uint64(unsafe.Sizeof(core.Trial{}))
	bound := materialized / 2
	peak := uint64(telemetry.New().Snapshot().PeakRSSBytes)
	var mem string
	switch {
	case peak == 0:
		mem = "peak rss unknown (no VmHWM; bound not checked)"
	case peak >= bound:
		return fmt.Errorf("peak rss %d MiB reaches half of the %d MiB the %d trials take materialized",
			peak>>20, materialized>>20, totalRows)
	default:
		mem = fmt.Sprintf("peak rss %d MiB (bound %d MiB)", peak>>20, bound>>20)
	}
	fmt.Printf("smoke ok: %d trials, %d bits, store %d bytes, csv sha256 %x, %s, %v\n",
		totalRows, width, st.Size(), got, mem, time.Since(start).Round(time.Millisecond))
	return nil
}
