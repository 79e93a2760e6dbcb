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
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"positres/internal/core"
	"positres/internal/numfmt"
	"positres/internal/sdrbench"
	"positres/internal/spec"
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
		// Tests never want real backoff waits unless they say so.
		Sleep: func(ctx context.Context, d time.Duration) error { return ctx.Err() },
	}
}

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

// renderCSV gives the byte-exact CSV a campaign result would publish —
// the artifact the resume-equivalence guarantee is stated over.
func renderCSV(t *testing.T, res *core.Result) []byte {
	t.Helper()
	if res == nil {
		t.Fatal("missing result for a spec that should be complete")
	}
	var buf bytes.Buffer
	if err := core.WriteTrialsCSV(&buf, res.Trials); err != nil {
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
// byte-identical to an uninterrupted run.
func TestResumeEquivalence(t *testing.T) {
	// Reference: one uninterrupted, non-durable run.
	ref, err := Run(context.Background(), testCfg(""))
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Complete() {
		t.Fatalf("reference run not complete: %+v", ref)
	}

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
	rep2, err := Run(context.Background(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
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
		got, want := renderCSV(t, rep2.Results[i]), renderCSV(t, ref.Results[i])
		if !bytes.Equal(got, want) {
			t.Fatalf("spec %s: resumed CSV differs from uninterrupted run", rep2.Specs[i].Key())
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
// flipped payload byte) or carries an older format (a PJR1 record with
// a CSV payload) is treated as absent, and only those shards are
// recomputed — with output still identical to a clean run.
func TestCorruptRecordRecomputed(t *testing.T) {
	dir := t.TempDir()
	ref, err := Run(context.Background(), testCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	refCSVs := make([][]byte, len(ref.Specs))
	for i := range ref.Specs {
		refCSVs[i] = renderCSV(t, ref.Results[i])
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

	cfg := testCfg(dir)
	cfg.Resume = true
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() || rep.Completed != 2 || rep.Resumed != testShardTotal-2 {
		t.Fatalf("corrupt-record resume profile: %+v", rep)
	}
	for i := range rep.Specs {
		if !bytes.Equal(renderCSV(t, rep.Results[i]), refCSVs[i]) {
			t.Fatalf("spec %s: CSV differs after corrupt-record recovery", rep.Specs[i].Key())
		}
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
	ref, err := Run(context.Background(), testCfg(""))
	if err != nil {
		t.Fatal(err)
	}

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
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() {
		t.Fatalf("execute-hook run not complete: %+v", rep.Shards)
	}
	if got := atomic.LoadInt32(&calls); got != testShardTotal+1 {
		t.Fatalf("Execute called %d times, want %d (every shard + one retry)", got, testShardTotal+1)
	}
	for i := range rep.Specs {
		if !bytes.Equal(renderCSV(t, rep.Results[i]), renderCSV(t, ref.Results[i])) {
			t.Fatalf("spec %s: Execute-hook CSV differs from local run", rep.Specs[i].Key())
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
		t.Fatal("spec with a failed shard must have no assembled result")
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
// run its shards.
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
