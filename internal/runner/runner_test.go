package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"positres/internal/core"
	"positres/internal/numfmt"
	"positres/internal/sdrbench"
	"positres/internal/spec"
	"positres/internal/store"
	"positres/internal/telemetry"
)

// testSpec is the canonical test campaign: a 2×2 Fields × Formats
// cross product, small enough to run in milliseconds.
func testSpec() *spec.CampaignSpec {
	return &spec.CampaignSpec{
		Fields:       []string{"CESM/CLOUD", "HACC/vx"},
		Formats:      []string{"posit16", "ieee32"},
		N:            400,
		TrialsPerBit: 5,
		Seed:         7,
		BitsPerShard: 4,
	}
}

// 2 fields × (16/4 + 32/4) shards for testSpec at 4 bits per shard.
const testShardTotal = 2 * (4 + 8)

func testCfg(dir string) Config {
	return Config{
		Spec:    testSpec(),
		Dir:     dir,
		Workers: 2,
		Sink:    discardSink{},
		// Tests never want real backoff waits unless they say so.
		Sleep: func(ctx context.Context, d time.Duration) error { return ctx.Err() },
	}
}

// discardSink accepts and drops every shard: the sink of tests that
// check the runner's bookkeeping rather than its trials.
type discardSink struct{}

func (discardSink) AppendShard(string, string, int, int, []core.Trial) error { return nil }

// singleShardCfg is a one-shard campaign (posit8, 8 bits per shard)
// for retry/watchdog tests that need exactly one unit of work.
func singleShardCfg() Config {
	cfg := testCfg("")
	cfg.Workers = 1
	cfg.Spec = &spec.CampaignSpec{
		Fields:       []string{"CESM/CLOUD"},
		Formats:      []string{"posit8"},
		N:            200,
		TrialsPerBit: 5,
		Seed:         7,
		BitsPerShard: 8,
	}
	return cfg
}

// directTrials computes a spec's whole campaign straight from the
// engine — core.RunRange over every bit — through neither the runner
// nor a store: the reference every runner output is compared against.
func directTrials(t *testing.T, cs *spec.CampaignSpec, sp Spec) []core.Trial {
	t.Helper()
	if verr := cs.Validate(); verr != nil {
		t.Fatal(verr)
	}
	field, err := sdrbench.Lookup(sp.Field)
	if err != nil {
		t.Fatal(err)
	}
	codec := mustCodecT(t, sp.Codec)
	data := sdrbench.ToFloat64(field.Generate(sp.N, sp.Seed))
	trials, err := core.RunRange(context.Background(), core.ConfigFromSpec(cs), codec, sp.Field, data, 0, codec.Width())
	if err != nil {
		t.Fatal(err)
	}
	return trials
}

// csvOf renders trials as the byte-exact CSV a campaign publishes —
// the artifact the resume-equivalence guarantee is stated over.
func csvOf(t *testing.T, trials []core.Trial) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := core.WriteTrialsCSV(&buf, trials); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// directCSVs is the reference CSV of every spec of cs, in SpecsOf
// order.
func directCSVs(t *testing.T, cs *spec.CampaignSpec) [][]byte {
	t.Helper()
	var out [][]byte
	for _, sp := range SpecsOf(cs) {
		out = append(out, csvOf(t, directTrials(t, cs, sp)))
	}
	return out
}

// storeRun runs cfg with its trials streamed into stores in a fresh
// directory, and returns the report and, per spec, the CSV rendered
// from the spec's sealed store (nil for a spec with no result).
func storeRun(t *testing.T, cfg Config) (*Report, [][]byte) {
	t.Helper()
	dir := t.TempDir()
	cw := store.NewCampaignWriter(dir)
	defer cw.Abort()
	cfg.Sink = cw
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	csvs := make([][]byte, len(rep.Specs))
	for i, res := range rep.Results {
		if res == nil {
			continue
		}
		if res.Trials != nil {
			t.Fatalf("%s: the Result holds %d trials", rep.Specs[i].Key(), len(res.Trials))
		}
		csvs[i] = storeCSV(t, cw, dir, res.Field, res.Codec)
	}
	return rep, csvs
}

// storeCSV seals one spec's store and renders it as CSV.
func storeCSV(t *testing.T, cw *store.CampaignWriter, dir, field, codec string) []byte {
	t.Helper()
	if err := cw.Seal(field, codec); err != nil {
		t.Fatal(err)
	}
	r, err := store.Open(filepath.Join(dir, store.FileName(field, codec)))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var buf bytes.Buffer
	if err := r.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSpecsOf pins the expansion order (Fields-major) and the codec
// name canonicalization — shard plans and journal filenames depend on
// both.
func TestSpecsOf(t *testing.T) {
	cs := testSpec()
	if verr := cs.Validate(); verr != nil {
		t.Fatal(verr)
	}
	specs := SpecsOf(cs)
	want := []Spec{
		{Field: "CESM/CLOUD", Codec: "posit16", N: 400, Seed: 7},
		{Field: "CESM/CLOUD", Codec: "ieee32", N: 400, Seed: 7},
		{Field: "HACC/vx", Codec: "posit16", N: 400, Seed: 7},
		{Field: "HACC/vx", Codec: "ieee32", N: 400, Seed: 7},
	}
	if len(specs) != len(want) {
		t.Fatalf("SpecsOf returned %d specs, want %d", len(specs), len(want))
	}
	for i := range want {
		if specs[i] != want[i] {
			t.Errorf("spec %d = %+v, want %+v", i, specs[i], want[i])
		}
	}
}

// TestResumeEquivalence is the acceptance test for the durable runner:
// a campaign interrupted mid-flight and resumed must produce CSVs
// byte-identical to an uninterrupted campaign.
func TestResumeEquivalence(t *testing.T) {
	want := directCSVs(t, testSpec())

	// Interrupted run: cancel the campaign after two shards journal.
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := testCfg(dir)
	var done int32
	cfg.OnShardDone = func(st ShardStatus) {
		if st.State == ShardDone && atomic.AddInt32(&done, 1) == 2 {
			cancel()
		}
	}
	rep1, err := Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep1.Cancelled {
		t.Fatal("interrupted run not marked cancelled")
	}
	if rep1.Completed < 2 || rep1.Skipped == 0 {
		t.Fatalf("unexpected interrupt profile: %+v", rep1)
	}
	m, err := loadManifest(filepath.Join(dir, "manifest.json"))
	if err != nil || m == nil {
		t.Fatalf("manifest after interrupt: %v", err)
	}
	if m.State != StateCancelled {
		t.Fatalf("manifest state %q, want %q", m.State, StateCancelled)
	}
	recs, err := filepath.Glob(filepath.Join(dir, "journal", "*.rec"))
	if err != nil || len(recs) != rep1.Completed {
		t.Fatalf("journal holds %d records (err %v), want %d", len(recs), err, rep1.Completed)
	}

	// Resume: only the missing shards run; final CSVs are identical.
	cfg2 := testCfg(dir)
	cfg2.Resume = true
	rep2, got := storeRun(t, cfg2)
	if !rep2.Complete() {
		t.Fatalf("resumed run not complete: %+v", rep2)
	}
	if rep2.Resumed != rep1.Completed {
		t.Fatalf("resumed %d shards, want %d", rep2.Resumed, rep1.Completed)
	}
	if rep2.Completed != testShardTotal-rep1.Completed {
		t.Fatalf("recomputed %d shards, want %d", rep2.Completed, testShardTotal-rep1.Completed)
	}
	for i := range rep2.Specs {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("spec %s: resumed CSV differs from the direct campaign", rep2.Specs[i].Key())
		}
	}
	m, err = loadManifest(filepath.Join(dir, "manifest.json"))
	if err != nil || m == nil || m.State != StateComplete {
		t.Fatalf("final manifest state: %+v (err %v)", m, err)
	}
}

// TestExistingStateRefusedWithoutResume: a populated state directory
// is never silently overwritten.
func TestExistingStateRefusedWithoutResume(t *testing.T) {
	dir := t.TempDir()
	if _, err := Run(context.Background(), testCfg(dir)); err != nil {
		t.Fatal(err)
	}
	_, err := Run(context.Background(), testCfg(dir))
	if !errors.Is(err, ErrStateExists) {
		t.Fatalf("err = %v, want ErrStateExists", err)
	}
}

// TestResumeParamMismatch: resuming with different campaign parameters
// or a different matrix is rejected — it would splice incompatible
// trial streams into one output.
func TestResumeParamMismatch(t *testing.T) {
	dir := t.TempDir()
	if _, err := Run(context.Background(), testCfg(dir)); err != nil {
		t.Fatal(err)
	}

	cfg := testCfg(dir)
	cfg.Resume = true
	cfg.Spec.TrialsPerBit = 9
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("resume with different TrialsPerBit must fail")
	}

	cfg = testCfg(dir)
	cfg.Resume = true
	cfg.Spec.BitsPerShard = 8
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("resume with different shard granularity must fail")
	}

	cfg = testCfg(dir)
	cfg.Resume = true
	cfg.Spec.Fields = cfg.Spec.Fields[:1]
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("resume with a different spec matrix must fail")
	}
}

// TestCorruptRecordRecomputed: a journal record that fails CRC (here: a
// flipped payload byte), carries an older format (a PJR1 record with
// a CSV payload) or declares a body length the file does not hold
// (negative, or one byte past its end) is treated as absent, and only
// those shards are recomputed — with output still identical to a
// clean campaign.
func TestCorruptRecordRecomputed(t *testing.T) {
	dir := t.TempDir()
	if _, err := Run(context.Background(), testCfg(dir)); err != nil {
		t.Fatal(err)
	}

	recs, err := filepath.Glob(filepath.Join(dir, "journal", "*.rec"))
	if err != nil || len(recs) != testShardTotal {
		t.Fatalf("journal holds %d records (err %v)", len(recs), err)
	}
	raw, err := os.ReadFile(recs[3])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(recs[3], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Rewrite another record as a well-formed PJR1 record: the same
	// meta line, its trials as CSV, a valid CRC over that body.
	meta, trials, err := readRecord(recs[5])
	if err != nil {
		t.Fatal(err)
	}
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	body.Write(metaJSON)
	body.WriteByte('\n')
	if err := core.WriteTrialsCSV(&body, trials); err != nil {
		t.Fatal(err)
	}
	pjr1 := fmt.Sprintf("PJR1 %08x %d\n%s", crc32.ChecksumIEEE(body.Bytes()), body.Len(), body.Bytes())
	if err := os.WriteFile(recs[5], []byte(pjr1), 0o644); err != nil {
		t.Fatal(err)
	}

	// Two more records keep their body but declare a length the file
	// does not hold: -1, and one byte more than the body it has.
	for i, length := range map[int]func(body int) int{
		7: func(int) int { return -1 },
		9: func(body int) int { return body + 1 },
	} {
		raw, err := os.ReadFile(recs[i])
		if err != nil {
			t.Fatal(err)
		}
		nl := bytes.IndexByte(raw, '\n')
		var crc uint32
		var n int
		if _, err := fmt.Sscanf(string(raw[:nl+1]), "PJR2 %08x %d\n", &crc, &n); err != nil {
			t.Fatal(err)
		}
		forged := fmt.Sprintf("PJR2 %08x %d\n%s", crc, length(n), raw[nl+1:])
		if err := os.WriteFile(recs[i], []byte(forged), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	cfg := testCfg(dir)
	cfg.Resume = true
	rep, got := storeRun(t, cfg)
	if !rep.Complete() || rep.Completed != 4 || rep.Resumed != testShardTotal-4 {
		t.Fatalf("corrupt-record resume profile: %+v", rep)
	}
	want := directCSVs(t, testSpec())
	for i := range rep.Specs {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("spec %s: CSV differs after corrupt-record recovery", rep.Specs[i].Key())
		}
	}
}

// TestVersion2BlockRecordRecomputed resumes over a journal record
// written by store Version 2, whose block stored every trial column
// (testdata/v2: positserve's record of the campaign below). The record
// header, CRC and meta line still parse and name this very shard, but
// the Version 3 block decoder refuses the block, so the record reads
// as absent and the shard recomputes to the CSV an uninterrupted run
// gives.
func TestVersion2BlockRecordRecomputed(t *testing.T) {
	cs := &spec.CampaignSpec{
		Fields:       []string{"CESM/CLOUD"},
		Formats:      []string{"posit8"},
		N:            256,
		TrialsPerBit: 2,
		Seed:         7,
		BitsPerShard: 8,
	}
	dir := t.TempDir()
	cfg := testCfg(dir)
	cfg.Spec = cs
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	v2, err := os.ReadFile(filepath.Join("testdata", "v2", "CESM_CLOUD.posit8.b00-08.rec"))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := filepath.Glob(filepath.Join(dir, "journal", "*.rec"))
	if err != nil || len(recs) != 1 || filepath.Base(recs[0]) != "CESM_CLOUD.posit8.b00-08.rec" {
		t.Fatalf("journal holds %v (err %v), want the one posit8 record", recs, err)
	}
	if err := os.WriteFile(recs[0], v2, 0o644); err != nil {
		t.Fatal(err)
	}
	meta, _, err := readRecord(recs[0])
	if !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("version 2 record read with error %v, want the block refused as ErrCorrupt", err)
	}
	sh := Shard{Spec: Spec{Field: "CESM/CLOUD", Codec: "posit8", N: 256, Seed: 7}, BitLo: 0, BitHi: 8}
	if meta.Shard != sh || meta.Campaign != paramsOf(core.ConfigFromSpec(cs)) {
		t.Fatalf("version 2 record meta %+v names another shard or campaign", meta)
	}

	cfg.Resume = true
	rep, got := storeRun(t, cfg)
	if !rep.Complete() || rep.Completed != 1 || rep.Resumed != 0 {
		t.Fatalf("resume over a version 2 record: %+v, want its shard recomputed", rep)
	}
	if want := directCSVs(t, cs); !bytes.Equal(got[0], want[0]) {
		t.Fatal("CSV differs after recomputing the version 2 record's shard")
	}
}

// TestRetryBackoff: transient shard faults are retried with
// exponential backoff until they clear.
func TestRetryBackoff(t *testing.T) {
	cfg := singleShardCfg()
	three := 3
	cfg.Spec.MaxRetries = &three
	cfg.RetryBaseDelay = 10 * time.Millisecond
	var delays []time.Duration
	cfg.Sleep = func(ctx context.Context, d time.Duration) error {
		delays = append(delays, d)
		return ctx.Err()
	}
	var attempts int32
	cfg.FaultHook = func(sh Shard, attempt int) error {
		atomic.AddInt32(&attempts, 1)
		if attempt <= 2 {
			return errors.New("injected transient fault")
		}
		return nil
	}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() {
		t.Fatalf("report not complete: %+v", rep.Shards)
	}
	if got := atomic.LoadInt32(&attempts); got != 3 {
		t.Fatalf("hook saw %d attempts, want 3", got)
	}
	if rep.Shards[0].Attempts != 3 {
		t.Fatalf("shard records %d attempts, want 3", rep.Shards[0].Attempts)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	if len(delays) != len(want) || delays[0] != want[0] || delays[1] != want[1] {
		t.Fatalf("backoff delays %v, want %v", delays, want)
	}
}

// TestExecuteHook: a Config.Execute campaign (the distributed path)
// routes every shard through the hook — never through local compute —
// under the same retry machinery, and produces trials byte-identical
// to a local run when the executor is faithful.
func TestExecuteHook(t *testing.T) {
	cfg := testCfg("")
	var calls int32
	var failedOnce atomic.Bool
	ccfg := core.ConfigFromSpec(cfg.Spec)
	cfg.Execute = func(ctx context.Context, sh Shard) ([]core.Trial, error) {
		atomic.AddInt32(&calls, 1)
		if !failedOnce.Swap(true) {
			return nil, errors.New("injected remote fault") // first dispatch fails; retry reassigns
		}
		// A faithful remote executor: recompute the shard from its
		// identity alone, as a worker process would.
		codec, err := numfmt.Lookup(sh.Codec)
		if err != nil {
			return nil, err
		}
		field, err := sdrbench.Lookup(sh.Field)
		if err != nil {
			return nil, err
		}
		data := sdrbench.ToFloat64(field.Generate(sh.N, sh.Seed))
		return core.RunRange(ctx, ccfg, codec, sh.Field, data, sh.BitLo, sh.BitHi)
	}
	rep, got := storeRun(t, cfg)
	if !rep.Complete() {
		t.Fatalf("execute-hook run not complete: %+v", rep.Shards)
	}
	if got := atomic.LoadInt32(&calls); got != testShardTotal+1 {
		t.Fatalf("Execute called %d times, want %d (every shard + one retry)", got, testShardTotal+1)
	}
	want := directCSVs(t, testSpec())
	for i := range rep.Specs {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("spec %s: Execute-hook CSV differs from the local engine", rep.Specs[i].Key())
		}
	}
}

// TestRetryExhaustedPartial: a shard that never recovers is recorded
// as failed, the rest of the campaign completes, and the run reports
// partial — graceful degradation instead of a crash.
func TestRetryExhaustedPartial(t *testing.T) {
	dir := t.TempDir()
	cfg := testCfg(dir)
	one := 1
	cfg.Spec.MaxRetries = &one
	cfg.FaultHook = func(sh Shard, attempt int) error {
		if sh.Field == "CESM/CLOUD" && sh.Codec == "posit16" && sh.BitLo == 0 {
			return errors.New("injected permanent fault")
		}
		return nil
	}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Partial() || rep.Failed != 1 || rep.Completed != testShardTotal-1 {
		t.Fatalf("partial profile: failed=%d completed=%d cancelled=%v", rep.Failed, rep.Completed, rep.Cancelled)
	}
	if rep.Results[0] != nil {
		t.Fatal("spec with a failed shard must have no result")
	}
	if rep.Results[1] == nil {
		t.Fatal("unaffected spec must still complete")
	}
	var failed *ShardStatus
	for i := range rep.Shards {
		if rep.Shards[i].State == ShardFailed {
			failed = &rep.Shards[i]
		}
	}
	if failed == nil {
		t.Fatal("no failed shard in report")
	}
	if failed.Attempts != 2 || !strings.Contains(failed.Error, "after 2 attempts") {
		t.Fatalf("failed shard: attempts=%d error=%q", failed.Attempts, failed.Error)
	}
	m, err := loadManifest(filepath.Join(dir, "manifest.json"))
	if err != nil || m == nil || m.State != StatePartial {
		t.Fatalf("manifest state: %+v (err %v)", m, err)
	}

	// The failed shard is not journaled, so a later resume (faults
	// cleared) finishes the campaign and heals the manifest.
	cfg2 := testCfg(dir)
	cfg2.Resume = true
	rep2, err := Run(context.Background(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Complete() || rep2.Completed != 1 || rep2.Resumed != testShardTotal-1 {
		t.Fatalf("healing resume profile: %+v", rep2)
	}
}

// TestWatchdogTimeout: a hung shard attempt is abandoned at the
// spec's shard_timeout and retried; the retry succeeds while the
// campaign context stays live.
func TestWatchdogTimeout(t *testing.T) {
	cfg := singleShardCfg()
	one := 1
	cfg.Spec.MaxRetries = &one
	cfg.Spec.ShardTimeout = "25ms"
	release := make(chan struct{})
	cfg.FaultHook = func(sh Shard, attempt int) error {
		if attempt == 1 {
			<-release // simulate a hang well past the watchdog
		}
		return nil
	}
	defer close(release)
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() {
		t.Fatalf("report not complete: %+v", rep.Shards)
	}
	if rep.Shards[0].Attempts != 2 {
		t.Fatalf("shard took %d attempts, want 2 (watchdog retry)", rep.Shards[0].Attempts)
	}
}

// TestRunnerPreCancelled: a pre-cancelled context produces a cancelled
// report with every shard skipped and a valid cancelled manifest —
// nothing runs, nothing is half-written.
func TestRunnerPreCancelled(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Run(ctx, testCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Cancelled || rep.Completed != 0 || rep.Skipped != testShardTotal {
		t.Fatalf("pre-cancelled profile: %+v", rep)
	}
	m, err := loadManifest(filepath.Join(dir, "manifest.json"))
	if err != nil || m == nil || m.State != StateCancelled {
		t.Fatalf("manifest state: %+v (err %v)", m, err)
	}
}

// TestRunSpecValidation: malformed campaign specs fail before touching
// state, carrying the stable spec error codes.
func TestRunSpecValidation(t *testing.T) {
	cases := map[string]*spec.CampaignSpec{
		"nil spec":       nil,
		"empty fields":   {Formats: []string{"posit32"}},
		"empty formats":  {Fields: []string{"CESM/CLOUD"}},
		"unknown field":  {Fields: []string{"No/Such"}, Formats: []string{"posit32"}},
		"unknown codec":  {Fields: []string{"CESM/CLOUD"}, Formats: []string{"posit33"}},
		"negative N":     {Fields: []string{"CESM/CLOUD"}, Formats: []string{"posit32"}, N: -1},
		"duplicate pair": {Fields: []string{"CESM/CLOUD"}, Formats: []string{"posit32", "posit32"}},
	}
	for name, cs := range cases {
		cfg := testCfg("")
		cfg.Spec = cs
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("%s: Run should fail", name)
		}
	}
}

// TestRunRequiresSink: the sink is the only way trials leave the
// runner, so a campaign without one fails before touching state.
func TestRunRequiresSink(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	cfg := testCfg(dir)
	cfg.Sink = nil
	if _, err := Run(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "Sink") {
		t.Fatalf("Run without a sink: err = %v, want a missing-sink error", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("Run without a sink touched its state directory (stat err %v)", err)
	}
}

// TestRunnerTelemetry: the metrics threaded through Config must
// reconcile exactly with the Report — shard tallies, injection
// counts (shards × bits × trials), latency histogram population,
// retry/backoff counts — and a resumed run must count resumed shards
// without re-counting the first run's retries.
func TestRunnerTelemetry(t *testing.T) {
	dir := t.TempDir()

	cfg := testCfg(dir)
	cfg.Metrics = telemetry.New()
	// One transient failure on a single shard to exercise retry and
	// backoff accounting.
	var faulted atomic.Bool
	cfg.FaultHook = func(sh Shard, attempt int) error {
		if attempt == 1 && !faulted.Swap(true) {
			return errors.New("transient")
		}
		return nil
	}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() {
		t.Fatalf("campaign not complete: %+v", rep)
	}
	s := cfg.Metrics.Snapshot()
	if s.ShardsDone != int64(testShardTotal) {
		t.Errorf("ShardsDone = %d, want %d", s.ShardsDone, testShardTotal)
	}
	// testSpec: 2 fields × (posit16 + ieee32) bits, 5 trials/bit.
	wantBits := int64(2 * (16 + 32))
	if s.Injections != wantBits*5 {
		t.Errorf("Injections = %d, want %d", s.Injections, wantBits*5)
	}
	if s.BitsDone != wantBits {
		t.Errorf("BitsDone = %d, want %d", s.BitsDone, wantBits)
	}
	if s.ShardLatency.Count != int64(testShardTotal) {
		t.Errorf("latency histogram count = %d, want %d", s.ShardLatency.Count, testShardTotal)
	}
	if s.Retries != 1 || s.Backoffs != 1 {
		t.Errorf("Retries/Backoffs = %d/%d, want 1/1", s.Retries, s.Backoffs)
	}
	if s.Workers != 2 {
		t.Errorf("Workers = %d, want 2", s.Workers)
	}
	if s.WorkerBusyNS <= 0 {
		t.Error("WorkerBusyNS not accumulated")
	}

	// Resume the finished campaign: every shard loads from the
	// journal, so the new metric set must count only resumed shards.
	cfg2 := testCfg(dir)
	cfg2.Resume = true
	cfg2.Metrics = telemetry.New()
	rep2, err := Run(context.Background(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Resumed != testShardTotal {
		t.Fatalf("resumed = %d, want %d", rep2.Resumed, testShardTotal)
	}
	s2 := cfg2.Metrics.Snapshot()
	if s2.ShardsResumed != int64(testShardTotal) {
		t.Errorf("ShardsResumed = %d, want %d", s2.ShardsResumed, testShardTotal)
	}
	if s2.ShardsDone != 0 || s2.Injections != 0 || s2.Retries != 0 {
		t.Errorf("resumed run recomputed work: done=%d injections=%d retries=%d",
			s2.ShardsDone, s2.Injections, s2.Retries)
	}
}

// TestRunnerGeneratesEachFieldOnce: every format of a field injects
// into the same dataset, so a 16-field campaign generates 16 datasets
// however many formats it crosses them with and however many workers
// run its shards. The dataset cache holds Workers+1 entries because
// the feeder looks up the current field's entry and, from that field's
// first shard on, the next field's one generating ahead: at Workers
// entries a 1-worker run would evict the current field for the next
// one and generate its dataset again for each of its later shards.
func TestRunnerGeneratesEachFieldOnce(t *testing.T) {
	var fields []string
	for _, f := range sdrbench.Fields() {
		fields = append(fields, f.Key())
	}
	for _, formats := range [][]string{
		{"posit32", "ieee32"},
		{"posit8", "posit16", "posit32", "posit64", "ieee32", "ieee64"},
	} {
		for _, workers := range []int{1, 2, 8} {
			cfg := testCfg("")
			cfg.Workers = workers
			cfg.Metrics = telemetry.New()
			cfg.Spec = &spec.CampaignSpec{
				Fields: fields, Formats: formats,
				N: 300, TrialsPerBit: 1, Seed: 5, BitsPerShard: 8,
			}
			rep, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Complete() {
				t.Fatalf("%d formats, %d workers: incomplete %+v", len(formats), workers, rep)
			}
			s := cfg.Metrics.Snapshot()
			if s.DatasetsGenerated != 16 || s.DatasetGenerateNS <= 0 {
				t.Errorf("%d formats, %d workers: datasets_generated = %d (%d ns), want 16",
					len(formats), workers, s.DatasetsGenerated, s.DatasetGenerateNS)
			}
		}
	}
}

// runGoroutines returns the stacks of live goroutines that Run started
// itself: its shard workers and its dataset prefetches.
func runGoroutines() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "created by positres/internal/runner.Run") {
			out = append(out, g)
		}
	}
	return out
}

// TestRunnerPrefetch: a multi-field campaign generates its next
// field's dataset ahead. Run waits for that generation, so no
// goroutine it started survives its return, whether the campaign
// completes or is cancelled mid-run; and a field whose shards all
// resume from the journal is never generated, not even ahead.
func TestRunnerPrefetch(t *testing.T) {
	cs := func() *spec.CampaignSpec {
		return &spec.CampaignSpec{
			Fields:  []string{"CESM/CLOUD", "HACC/vx", "Nyx/temperature", "Hurricane/PRECIPf48"},
			Formats: []string{"posit8", "posit16"},
			N:       20000, TrialsPerBit: 4, Seed: 3, BitsPerShard: 8,
		}
	}
	const fieldShards = 1 + 2 // posit8 and posit16 at 8 bits per shard

	// To completion, then cancelled after its third shard.
	dir := t.TempDir()
	cfg := testCfg(dir)
	cfg.Spec = cs()
	cfg.Metrics = telemetry.New()
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if left := runGoroutines(); !rep.Complete() || len(left) > 0 {
		t.Fatalf("complete=%v; %d goroutines started by Run outlive it:\n%s",
			rep.Complete(), len(left), strings.Join(left, "\n\n"))
	}
	if got := cfg.Metrics.Snapshot().DatasetsGenerated; got != 4 {
		t.Errorf("complete run: datasets_generated = %d, want 4", got)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ccfg := testCfg("")
	ccfg.Spec = cs()
	var done int32
	ccfg.OnShardDone = func(st ShardStatus) {
		if atomic.AddInt32(&done, 1) == 3 {
			cancel()
		}
	}
	crep, err := Run(ctx, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if left := runGoroutines(); !crep.Cancelled || len(left) > 0 {
		t.Fatalf("cancelled=%v; %d goroutines started by Run outlive it:\n%s",
			crep.Cancelled, len(left), strings.Join(left, "\n\n"))
	}

	// Resume with the second and fourth fields' records removed: the
	// first and third fields resume whole, and the feeder's first field
	// (HACC/vx) must generate ahead the fourth, not the third.
	for _, workers := range []int{1, 2} {
		for _, prefix := range []string{"HACC_vx.", "Hurricane_PRECIPf48."} {
			recs, err := filepath.Glob(filepath.Join(dir, "journal", prefix+"*.rec"))
			if err != nil || len(recs) != fieldShards {
				t.Fatalf("%s: %d journal records (err %v), want %d", prefix, len(recs), err, fieldShards)
			}
			for _, r := range recs {
				if err := os.Remove(r); err != nil {
					t.Fatal(err)
				}
			}
		}
		rcfg := testCfg(dir)
		rcfg.Spec = cs()
		rcfg.Resume = true
		rcfg.Workers = workers
		rcfg.Metrics = telemetry.New()
		rrep, err := Run(context.Background(), rcfg)
		if err != nil {
			t.Fatal(err)
		}
		if !rrep.Complete() || rrep.Resumed != 2*fieldShards || rrep.Completed != 2*fieldShards {
			t.Fatalf("%d workers: resume profile %+v", workers, rrep)
		}
		if got := rcfg.Metrics.Snapshot().DatasetsGenerated; got != 2 {
			t.Errorf("%d workers: datasets_generated = %d, want 2: a resumed field was generated", workers, got)
		}
	}
}

func TestShardIDStable(t *testing.T) {
	sh := Shard{Spec: Spec{Field: "CESM/CLOUD", Codec: "posit16"}, BitLo: 4, BitHi: 8}
	if got, want := sh.ID(), "CESM_CLOUD.posit16.b04-08"; got != want {
		t.Fatalf("ID = %q, want %q", got, want)
	}
}

// TestBackoffSchedule pins the exported backoff curve the coordinator
// shares: doubling from base, capped at 30s.
func TestBackoffSchedule(t *testing.T) {
	base := 50 * time.Millisecond
	want := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond}
	for i, w := range want {
		if got := Backoff(base, i+1); got != w {
			t.Errorf("Backoff(%v, %d) = %v, want %v", base, i+1, got, w)
		}
	}
	if got := Backoff(base, 30); got != 30*time.Second {
		t.Errorf("Backoff cap = %v, want 30s", got)
	}
}

// TestRecordRoundTrip: PJR2 journal records survive write/read with
// exact meta and bit-identical trials, and reject truncation.
func TestRecordRoundTrip(t *testing.T) {
	dir := t.TempDir()
	trials, err := core.RunRange(context.Background(), core.DefaultConfig(), mustCodecT(t, "posit16"), "CESM/CLOUD", []float64{1.5, -2.25, 3.75}, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	meta := recordMeta{
		Shard:      Shard{Spec: Spec{Field: "CESM/CLOUD", Codec: "posit16", N: 3, Seed: 7}, BitLo: 0, BitHi: 4},
		Campaign:   paramsOf(core.DefaultConfig()),
		Trials:     len(trials),
		DurationNS: 12345,
		Attempts:   2,
	}
	if err := writeRecord(dir, meta, trials); err != nil {
		t.Fatal(err)
	}
	path := recordPath(dir, meta.Shard)
	got, gotTrials, err := readRecord(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != meta || len(gotTrials) != len(trials) {
		t.Fatalf("round trip: meta %+v, %d trials", got, len(gotTrials))
	}
	var wantCSV, gotCSV bytes.Buffer
	if err := core.WriteTrialsCSV(&wantCSV, trials); err != nil {
		t.Fatal(err)
	}
	if err := core.WriteTrialsCSV(&gotCSV, gotTrials); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCSV.Bytes(), wantCSV.Bytes()) {
		t.Fatal("round trip changed trial content")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, []byte("PJR2 ")) {
		t.Fatalf("record header %q, want PJR2", raw[:min(len(raw), 20)])
	}
	if err := os.WriteFile(path, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readRecord(path); err == nil {
		t.Fatal("truncated record must not verify")
	}
}

// TestWriteRecordReusesBuffer bounds the journal's steady-state
// garbage: each record body encodes into a pooled buffer, so writing a
// record allocates its meta line and file handles, not a copy of its
// block. Growing the body from the meta line, as the journal once did,
// allocated about twice the block per record.
func TestWriteRecordReusesBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random quarter of Puts under -race")
	}
	dir := t.TempDir()
	cfg := core.DefaultConfig()
	cfg.Workers = 1
	field, err := sdrbench.Lookup("CESM/CLOUD")
	if err != nil {
		t.Fatal(err)
	}
	data := sdrbench.ToFloat64(field.Generate(2000, 7))
	sh := Shard{Spec: Spec{Field: "CESM/CLOUD", Codec: "posit32", N: len(data), Seed: 7}, BitLo: 8, BitHi: 16}
	trials, err := core.RunRange(context.Background(), cfg, mustCodecT(t, sh.Codec), sh.Field, data, sh.BitLo, sh.BitHi)
	if err != nil {
		t.Fatal(err)
	}
	block, err := store.AppendBlock(nil, sh.Field, sh.Codec, sh.BitLo, sh.BitHi, trials)
	if err != nil {
		t.Fatal(err)
	}
	meta := recordMeta{Shard: sh, Campaign: paramsOf(cfg), Trials: len(trials), DurationNS: 1, Attempts: 1}
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := writeRecord(dir, meta, trials); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got, limit := res.AllocedBytesPerOp(), int64(len(block)/4); got >= limit {
		t.Fatalf("writeRecord allocates %d B per record, want < %d (a quarter of its %d-byte block)",
			got, limit, len(block))
	}
}

func mustCodecT(t *testing.T, name string) numfmt.Codec {
	t.Helper()
	c, err := numfmt.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestJitteredBackoff: the jittered schedule is deterministic for a
// given (key, attempt), bounded to [0.75, 1.25) of the base schedule,
// and actually spreads distinct keys apart (the thundering-herd guard).
func TestJitteredBackoff(t *testing.T) {
	base := 100 * time.Millisecond
	for attempt := 1; attempt <= 6; attempt++ {
		plain := Backoff(base, attempt)
		for _, key := range []string{"http://w1", "http://w2", "http://w3"} {
			d1 := JitteredBackoff(base, attempt, key)
			d2 := JitteredBackoff(base, attempt, key)
			if d1 != d2 {
				t.Fatalf("jitter not deterministic for (%s, %d): %v vs %v", key, attempt, d1, d2)
			}
			lo := time.Duration(float64(plain) * 0.75)
			hi := time.Duration(float64(plain) * 1.25)
			if d1 < lo || d1 >= hi {
				t.Fatalf("jitter %v for (%s, %d) outside [%v, %v)", d1, key, attempt, lo, hi)
			}
		}
	}
	// Distinct keys must not collapse onto one delay.
	seen := map[time.Duration]bool{}
	for _, key := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		seen[JitteredBackoff(base, 2, key)] = true
	}
	if len(seen) < 4 {
		t.Fatalf("8 keys produced only %d distinct delays: %v", len(seen), seen)
	}
}
