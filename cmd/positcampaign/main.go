// Command positcampaign runs the paper's fault-injection campaign:
// for each selected (field, format) pair it injects single-bit flips
// at every bit position and logs per-trial error metrics (paper §4,
// Fig. 8).
//
// Every campaign streams its trials shard by shard into one columnar
// .pts store per (field, format) (docs/STORE.md), so memory stays
// bounded at any campaign size, and prints each pair's summary from
// the store's footer aggregates. -store-out keeps the stores; without
// it they live in a scratch directory removed on exit, and -out
// receives each one rendered as a per-trial CSV.
//
// With -out the campaign is durable: progress is journaled shard by
// shard under <out>/journal with a manifest at <out>/manifest.json, so
// a crashed or interrupted run continues with -resume and produces
// CSVs byte-identical to an uninterrupted run (docs/RESILIENCE.md).
//
// Usage:
//
//	positcampaign -field Nyx/temperature -formats posit32,ieee32 -out logs/
//	positcampaign -field all -trials 313 -n 2000000 -out logs/
//	positcampaign -field all -out logs/ -resume
//	positcampaign -field all -out state/ -store-out stores/
//	positcampaign -field HACC/vx -data vx.f32 -formats posit32 -out logs/
//
// Exit codes: 0 complete; 1 fatal error; 2 usage; 3 partial (one or
// more shards failed permanently — see manifest.json); 130 interrupted
// (SIGINT/SIGTERM; progress journaled).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the -pprof listener
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"positres/internal/atomicio"
	"positres/internal/core"
	"positres/internal/numfmt"
	"positres/internal/runner"
	"positres/internal/sdrbench"
	"positres/internal/spec"
	"positres/internal/stats"
	"positres/internal/store"
	"positres/internal/telemetry"
	"positres/internal/textplot"
)

// Exit codes of the campaign process.
const (
	exitOK        = 0
	exitFatal     = 1
	exitUsage     = 2
	exitPartial   = 3
	exitInterrupt = 130
)

func main() { os.Exit(run()) }

func run() int {
	var (
		fieldFlag    = flag.String("field", "", "field key (Dataset/Name), or 'all'")
		dataFlag     = flag.String("data", "", "optional raw .f32 file to inject into (instead of synthetic data)")
		fmtsFlag     = flag.String("formats", "posit32,ieee32", "comma-separated formats: "+strings.Join(numfmt.Names(), ", "))
		trials       = flag.Int("trials", 313, "trials per bit position (paper: 313)")
		n            = flag.Int("n", 2_000_000, "synthetic elements per field")
		seed         = flag.Uint64("seed", 1, "campaign seed (reproducible)")
		workers      = flag.Int("workers", 0, "concurrent shards (0 = GOMAXPROCS)")
		outDir       = flag.String("out", "", "directory for the journal, the manifest and, without -store-out, per-(field,format) trial CSVs")
		storeOut     = flag.String("store-out", "", "keep the per-(field,format) columnar .pts stores in this directory instead of rendering CSVs into -out")
		keepZeros    = flag.Bool("keep-zeros", false, "allow zero-valued elements to be selected")
		resume       = flag.Bool("resume", false, "continue the campaign journaled in -out")
		shardTimeout = flag.Duration("shard-timeout", 10*time.Minute, "per-shard watchdog; a stuck shard is abandoned and retried (0 disables)")
		maxRetries   = flag.Int("max-retries", 2, "retries per shard after its first attempt")
		bitsPerShard = flag.Int("bits-per-shard", 8, "bit positions per journaled work unit")
		telemetryOut = flag.String("telemetry-out", "", "write a JSON telemetry snapshot (schema "+telemetry.SnapshotSchema+") to this file on exit")
		pprofAddr    = flag.String("pprof", "", "serve /debug/pprof and /debug/vars on this address (e.g. localhost:6060) while the campaign runs")
		// Deliberate failure injection for the resilience e2e test
		// (scripts/resume_e2e.sh); not for normal use.
		crashAfter  = flag.Int("debug-crash-after", 0, "if >0, simulate a hard crash (exit 137) after N shards complete")
		sigintAfter = flag.Int("debug-sigint-after", 0, "if >0, send ourselves SIGINT after N shards complete")
	)
	flag.Parse()

	// Telemetry is always collected (the counters are a few atomic adds
	// per bit/shard); the flags only control where it is exposed.
	metrics := telemetry.New()
	telemetry.Publish("positres.campaign", metrics)
	if *pprofAddr != "" {
		go func() {
			// expvar's init hooked /debug/vars into the default mux and
			// net/http/pprof hooked /debug/pprof/*; serving the default
			// mux exposes both.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "positcampaign: pprof listener:", err)
			}
		}()
	}
	// The snapshot is written on every exit path — complete, partial,
	// interrupted or fatal — and never changes the exit code: telemetry
	// must observe failures, not mask them.
	if *telemetryOut != "" {
		defer func() {
			if err := atomicio.WriteFile(*telemetryOut, metrics.WriteSnapshot); err != nil {
				fmt.Fprintln(os.Stderr, "positcampaign: telemetry snapshot:", err)
			}
		}()
	}

	if *fieldFlag == "" {
		flag.Usage()
		return exitUsage
	}
	if *resume && *outDir == "" {
		fmt.Fprintln(os.Stderr, "positcampaign: -resume requires -out (the journal lives there)")
		return exitUsage
	}
	// One canonical campaign description: the same spec.CampaignSpec
	// that POST /v1/campaigns accepts and runner.Config consumes, so
	// the CLI and the service cannot drift in defaults or validation.
	var fieldKeys []string
	if *fieldFlag == "all" {
		for _, f := range sdrbench.Fields() {
			fieldKeys = append(fieldKeys, f.Key())
		}
	} else {
		fieldKeys = []string{*fieldFlag}
	}
	var formats []string
	for _, name := range strings.Split(*fmtsFlag, ",") {
		formats = append(formats, strings.TrimSpace(name))
	}
	retries := *maxRetries
	cs := &spec.CampaignSpec{
		Fields:       fieldKeys,
		Formats:      formats,
		N:            *n,
		TrialsPerBit: *trials,
		Seed:         *seed,
		KeepZeros:    *keepZeros,
		BitsPerShard: *bitsPerShard,
		MaxRetries:   &retries,
		ShardTimeout: shardTimeout.String(),
	}
	if verr := cs.Validate(); verr != nil {
		// The stable error code (shared with the HTTP API) prefixes the
		// message so scripts can dispatch on it.
		fmt.Fprintf(os.Stderr, "positcampaign: %s: %s\n", verr.Code, verr.Message)
		return exitFatal
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return fatal(err)
		}
	}

	// Trials stream into one .pts store per (field, format). Without
	// -store-out the stores are scratch, removed on exit, and -out gets
	// each rendered as CSV.
	storeDir, csvDir := *storeOut, ""
	if storeDir == "" {
		if *resume {
			// A crashed run's scratch stores are garbage: a resume
			// rebuilds the stores from the journal. Best effort: a
			// leftover only costs disk.
			entries, _ := os.ReadDir(*outDir)
			for _, e := range entries {
				if e.IsDir() && strings.HasPrefix(e.Name(), ".stores-") {
					_ = os.RemoveAll(filepath.Join(*outDir, e.Name()))
				}
			}
		}
		dir, err := os.MkdirTemp(*outDir, ".stores-")
		if err != nil {
			return fatal(err)
		}
		defer func() { _ = os.RemoveAll(dir) }() // best effort: scratch only
		storeDir, csvDir = dir, *outDir
	} else if err := os.MkdirAll(storeDir, 0o755); err != nil {
		return fatal(err)
	}
	cw := store.NewCampaignWriter(storeDir)
	defer cw.Abort() // no-op for stores Seal already committed
	keepStores := *storeOut != ""

	// SIGINT/SIGTERM cancel the campaign context; workers drain, the
	// journal keeps every completed shard, and we exit 130.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *dataFlag != "" {
		// Explicit data file: run the selected fields' campaigns over
		// the provided array (not sharded — the file is the dataset),
		// each appended to its store as one full-width shard.
		raw, err := sdrbench.ReadRawFile(*dataFlag)
		if err != nil {
			return fatal(err)
		}
		data := sdrbench.ToFloat64(raw)
		cfg := core.ConfigFromSpec(cs)
		cfg.Metrics = metrics
		cfg.Workers = *workers
		for _, fk := range cs.Fields {
			for _, name := range cs.Formats {
				codec, err := numfmt.Lookup(name)
				if err != nil {
					return fatal(err) // unreachable after Validate
				}
				res, err := core.Run(ctx, cfg, codec, fk, data)
				if errors.Is(err, context.Canceled) {
					fmt.Fprintln(os.Stderr, "positcampaign: interrupted")
					return exitInterrupt
				}
				if err != nil {
					return fatal(err)
				}
				if err := cw.AppendShard(res.Field, res.Codec, 0, codec.Width(), res.Trials); err != nil {
					return fatal(err)
				}
				if err := cw.Seal(res.Field, res.Codec); err != nil {
					return fatal(err)
				}
				if err := report(res, storeDir, csvDir, keepStores); err != nil {
					return fatal(err)
				}
			}
		}
		return exitOK
	}

	// Synthetic data: durable sharded campaign matrix.
	var doneShards int32
	rcfg := runner.Config{
		Spec:    cs,
		Dir:     *outDir,
		Resume:  *resume,
		Workers: *workers,
		Sink:    cw,
		Metrics: metrics,
		OnShardDone: func(st runner.ShardStatus) {
			if st.State == runner.ShardFailed {
				fmt.Fprintf(os.Stderr, "positcampaign: shard %s failed: %s\n", st.ID(), st.Error)
			}
			if st.State != runner.ShardDone {
				return
			}
			n := atomic.AddInt32(&doneShards, 1)
			if *crashAfter > 0 && n >= int32(*crashAfter) {
				os.Exit(137) // simulated hard crash: no drain, no manifest update
			}
			if *sigintAfter > 0 && n == int32(*sigintAfter) {
				// Exercises the real signal path end to end.
				if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
					fmt.Fprintln(os.Stderr, "positcampaign: self-SIGINT:", err)
				}
			}
		},
	}
	rep, err := runner.Run(ctx, rcfg)
	if err != nil {
		return fatal(err)
	}

	if rep.Cancelled {
		// Completed shards are journaled; CSVs are only published by
		// complete runs so a final-path CSV is always a whole campaign.
		fmt.Fprintf(os.Stderr, "positcampaign: interrupted after %d/%d shards; resume with -resume\n",
			rep.Completed+rep.Resumed, len(rep.Shards))
		return exitInterrupt
	}
	sealErrs := sealAll(cw, rep.Results)
	published := 0
	for i, res := range rep.Results {
		if res == nil {
			continue
		}
		if sealErrs[i] != nil {
			return fatal(sealErrs[i])
		}
		if err := report(res, storeDir, csvDir, keepStores); err != nil {
			return fatal(err)
		}
		published++
	}
	if rep.Partial() {
		fmt.Fprintf(os.Stderr, "positcampaign: partial: %d shard(s) failed permanently; see %s\n",
			rep.Failed, filepath.Join(*outDir, "manifest.json"))
		return exitPartial
	}
	fmt.Printf("total: %d campaigns, %v\n", published, rep.Elapsed.Round(time.Millisecond))
	return exitOK
}

// sealers bounds the concurrent seals of sealAll. Each seal is a
// footer write and an fsync; 4, 8 and 16 measured the same.
const sealers = 4

// sealAll seals the store of every complete spec (a non-nil result),
// at most sealers at a time, so their fsyncs overlap. The returned
// errors are index-aligned with results.
func sealAll(cw *store.CampaignWriter, results []*core.Result) []error {
	errs := make([]error, len(results))
	slots := make(chan struct{}, sealers)
	var wg sync.WaitGroup
	for i, res := range results {
		if res == nil {
			continue
		}
		wg.Add(1)
		slots <- struct{}{}
		go func() {
			defer wg.Done()
			errs[i] = cw.Seal(res.Field, res.Codec)
			<-slots
		}()
	}
	wg.Wait()
	return errs
}

// report prints one sealed (field, format) store's summary from its
// footer aggregates. With csvDir set it publishes the store's rows
// there as CSV, atomically: a reader never observes a partial file at
// the final path, no matter when the process dies. keepStore names the
// store in the output when it outlives the run.
func report(res *core.Result, storeDir, csvDir string, keepStore bool) error {
	path := filepath.Join(storeDir, store.FileName(res.Field, res.Codec))
	rd, err := store.Open(path)
	if err != nil {
		return err
	}
	defer rd.Close() // read-only: a close error loses nothing
	fmt.Printf("== %s / %s: %d trials in ~%v\n", res.Field, res.Codec, rd.Rows(), res.Elapsed.Round(time.Millisecond))
	fmt.Print(summary(rd.BitAggs()))
	if keepStore {
		fmt.Printf("   store: %s\n", path)
	}
	if csvDir == "" {
		return nil
	}
	csv := filepath.Join(csvDir, fmt.Sprintf("%s_%s.csv", strings.ReplaceAll(res.Field, "/", "_"), res.Codec))
	if err := atomicio.WriteFile(csv, rd.RenderCSV); err != nil {
		return err
	}
	fmt.Printf("   log: %s\n", csv)
	return nil
}

// summary renders the per-bit aggregates as a table of bit quarters:
// the mean of the bits' mean errors, the median of their medians, the
// largest maximum and the summed catastrophic count. Non-finite (and
// near-overflow) per-bit values are left out.
func summary(aggs []core.BitAgg) string {
	t := &textplot.Table{Header: []string{"bits", "mean rel err", "median rel err", "max rel err", "catastrophic"}}
	// Condense to field-level rows: group aggregate bits into quarters.
	width := len(aggs)
	quarter := (width + 3) / 4
	for q := 0; q < 4; q++ {
		lo, hi := q*quarter, (q+1)*quarter
		if hi > width {
			hi = width
		}
		if lo >= hi {
			continue
		}
		var mean, max float64
		var cat, cnt int
		var medians []float64
		for _, a := range aggs[lo:hi] {
			if !isBad(a.MeanRelErr) {
				mean += a.MeanRelErr
				cnt++
			}
			if !isBad(a.MaxRelErr) && a.MaxRelErr > max {
				max = a.MaxRelErr
			}
			if !isBad(a.MedianRelErr) {
				medians = append(medians, a.MedianRelErr)
			}
			cat += a.Catastrophic
		}
		med := 0.0
		if len(medians) > 0 {
			med = stats.Median(medians)
		}
		if cnt > 0 {
			mean /= float64(cnt)
		}
		t.AddRow(fmt.Sprintf("%d-%d", aggs[lo].Bit, aggs[hi-1].Bit),
			fmt.Sprintf("%.3g", mean), fmt.Sprintf("%.3g", med),
			fmt.Sprintf("%.3g", max), fmt.Sprintf("%d", cat))
	}
	return t.Render()
}

func isBad(v float64) bool { return math.IsNaN(v) || v > 1e308 || v < -1e308 }

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "positcampaign:", err)
	return exitFatal
}
