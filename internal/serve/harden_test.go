package serve

// Tests for the resiliency hardening: client retry policy with
// Retry-After honor, the shard block checks (length prefix, CRC, bit
// range, row count), coordinator→worker deadline propagation, and the
// derived Retry-After backpressure hint. The headline test proves the
// acceptance criterion of the chaos harness: a corrupted or truncated
// worker response is retried and NEVER merged into the journal — the
// final CSVs stay byte-identical to a clean run.

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"positres/internal/chaos"
	"positres/internal/spec"
	"positres/internal/store"
)

// noSleep is a RetryPolicy.Sleep that records requested delays and
// returns immediately, keeping retry tests fast.
func noSleep(slept *[]time.Duration) func(context.Context, time.Duration) error {
	return func(_ context.Context, d time.Duration) error {
		*slept = append(*slept, d)
		return nil
	}
}

func TestClientRetriesTransient5xx(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			writeError(w, http.StatusInternalServerError, codeInternal, "transient blip")
			return
		}
		writeJSON(w, http.StatusOK, healthBody{Status: "ok"})
	}))
	defer ts.Close()

	var slept []time.Duration
	c := NewClient(ts.URL, nil).WithRetry(RetryPolicy{MaxAttempts: 4, Sleep: noSleep(&slept)})
	if _, err := c.Health(context.Background()); err != nil {
		t.Fatalf("retrying client failed through a transient 5xx: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d calls, want 3 (2 failures + success)", got)
	}
	if len(slept) != 2 {
		t.Errorf("slept %d times, want 2", len(slept))
	}

	// The default client stays single-attempt: the dispatcher's failure
	// accounting depends on seeing every error.
	calls.Store(0)
	if _, err := NewClient(ts.URL, nil).Health(context.Background()); err == nil {
		t.Fatal("non-retrying client swallowed a 5xx")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("non-retrying client made %d calls, want 1", got)
	}
}

func TestClientHonorsRetryAfterOn429(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "7")
			writeError(w, http.StatusTooManyRequests, codeQueueFull, "queue is full")
			return
		}
		writeJSON(w, http.StatusAccepted, CampaignStatus{ID: "0123456789abcdef", State: jobQueued})
	}))
	defer ts.Close()

	var slept []time.Duration
	c := NewClient(ts.URL, nil).WithRetry(RetryPolicy{MaxAttempts: 3, Sleep: noSleep(&slept)})
	cs := &spec.CampaignSpec{Fields: []string{"CESM/CLOUD"}, Formats: []string{"posit8"}, N: 256, TrialsPerBit: 2, Seed: 7}
	st, err := c.SubmitCampaign(context.Background(), cs, false)
	if err != nil {
		t.Fatalf("submission not retried after 429: %v", err)
	}
	if st.ID == "" {
		t.Error("empty status after retried submission")
	}
	if len(slept) != 1 || slept[0] != 7*time.Second {
		t.Errorf("slept %v, want exactly the server's 7s Retry-After", slept)
	}
}

func TestClientDoesNotRetryNonIdempotent5xx(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeError(w, http.StatusInternalServerError, codeInternal, "boom")
	}))
	defer ts.Close()

	var slept []time.Duration
	c := NewClient(ts.URL, nil).WithRetry(RetryPolicy{MaxAttempts: 3, Sleep: noSleep(&slept)})
	cs := &spec.CampaignSpec{Fields: []string{"CESM/CLOUD"}, Formats: []string{"posit8"}}
	if _, err := c.SubmitCampaign(context.Background(), cs, false); err == nil {
		t.Fatal("5xx submission reported success")
	}
	// A 500 on POST /v1/campaigns may or may not have enqueued the job
	// server-side; resubmitting could run the campaign twice.
	if got := calls.Load(); got != 1 {
		t.Errorf("non-idempotent request retried: %d calls, want 1", got)
	}
}

func TestClientInject(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	bit := 6
	val := 1.0
	resp, err := NewClient(ts.URL, nil).Inject(context.Background(),
		InjectRequest{Format: "posit8", Value: &val, Bit: &bit})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OrigBits != HexBits(0x40) || resp.FaultyBits != HexBits(0) || resp.BitField != "regime" {
		t.Errorf("inject answer %+v, want 0x40 -> 0x0 regime flip", resp)
	}
}

// shardReq is a worker shard request big enough (~120 KB block) that
// every chaos body fault lands inside the payload.
func shardReq() ShardRequest {
	return ShardRequest{
		Spec: spec.CampaignSpec{
			Fields: []string{"CESM/CLOUD"}, Formats: []string{"posit8"},
			N: 256, TrialsPerBit: 313, Seed: 7,
		},
		BitLo: 0, BitHi: 8,
	}
}

func TestRunShardIntegrityThroughCleanProxy(t *testing.T) {
	_, worker := newTestServer(t, Config{})
	ctx := context.Background()
	want, err := NewClient(worker.URL, nil).RunShard(ctx, shardReq())
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("baseline shard returned no trials")
	}

	// A transparent chaos proxy must not trip the block checks.
	p, err := chaos.New(worker.URL, chaos.Faults{}, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	pts := httptest.NewServer(p)
	defer pts.Close()
	got, err := NewClient(pts.URL, nil).RunShard(ctx, shardReq())
	if err != nil {
		t.Fatalf("clean proxy tripped integrity check: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("trials through proxy = %d, want %d", len(got), len(want))
	}
}

func TestRunShardRejectsCorruptAndTruncatedBodies(t *testing.T) {
	_, worker := newTestServer(t, Config{})
	good, err := NewClient(worker.URL, nil).RunShard(context.Background(), shardReq())
	if err != nil {
		t.Fatal(err)
	}
	// Well-formed, CRC-valid blocks for the wrong shard: half the bit
	// range, and one row short.
	wrongRange, err := store.AppendBlock(nil, "CESM/CLOUD", "posit8", 0, 4, good[:4*313])
	if err != nil {
		t.Fatal(err)
	}
	wrongRows, err := store.AppendBlock(nil, "CESM/CLOUD", "posit8", 0, 8, good[1:])
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		faults chaos.Faults
		block  []byte // when set, a fake worker answers with it
	}{
		{"corrupt", chaos.Faults{Seed: 7, CorruptP: 1}, nil},
		{"truncate", chaos.Faults{Seed: 7, TruncateP: 1}, nil},
		{"wrong bit range", chaos.Faults{}, wrongRange},
		{"wrong row count", chaos.Faults{}, wrongRows},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			target := worker.URL
			if tc.block != nil {
				fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if _, err := w.Write(tc.block); err != nil {
						t.Log(err)
					}
				}))
				defer fake.Close()
				target = fake.URL
			}
			p, err := chaos.New(target, tc.faults, t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			pts := httptest.NewServer(p)
			defer pts.Close()
			trials, err := NewClient(pts.URL, nil).RunShard(context.Background(), shardReq())
			if err == nil {
				t.Fatalf("%s body accepted: %d trials merged", tc.name, len(trials))
			}
			t.Logf("rejected as: %v", err)
		})
	}
}

func TestRunShardForwardsDeadline(t *testing.T) {
	var gotMS atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ms, _ := strconv.ParseInt(r.Header.Get(headerShardDeadline), 10, 64)
		gotMS.Store(ms)
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := NewClient(ts.URL, nil).RunShard(ctx, shardReq()); err != nil {
		// The fake answers with an empty body; only the deadline header
		// matters here.
		t.Logf("shard decode (expected): %v", err)
	}
	if ms := gotMS.Load(); ms <= 0 || ms > 30_000 {
		t.Errorf("worker saw deadline %dms, want in (0, 30000]", ms)
	}
}

// TestCorruptShardRetriedNeverMerged is the acceptance criterion of
// the chaos harness end to end through the real dispatcher and
// runner: a middleman corrupts the FIRST shard response from the
// worker (one block byte flipped, so its CRC no longer matches), the
// coordinator must detect it, retry the shard, and publish a result
// CSV byte-identical to a local, fault-free run.
func TestCorruptShardRetriedNeverMerged(t *testing.T) {
	_, worker := newTestServer(t, Config{})

	var shardCalls, corrupted atomic.Int32
	middleman := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inBody, err := io.ReadAll(r.Body)
		if err != nil {
			t.Errorf("middleman read: %v", err)
			return
		}
		req, err := http.NewRequestWithContext(r.Context(), r.Method,
			worker.URL+r.URL.RequestURI(), bytes.NewReader(inBody))
		if err != nil {
			t.Errorf("middleman request: %v", err)
			return
		}
		req.Header = r.Header.Clone()
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		body, err := io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); cerr != nil {
			t.Log(cerr)
		}
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		for k, vv := range resp.Header {
			for _, v := range vv {
				w.Header().Add(k, v)
			}
		}
		if r.URL.Path == "/v1/shards" && shardCalls.Add(1) == 1 && len(body) > 64 {
			body[64] ^= 0x20 // flip one byte inside the block
			corrupted.Add(1)
		}
		w.WriteHeader(resp.StatusCode)
		if _, err := w.Write(body); err != nil {
			t.Logf("middleman write: %v", err)
		}
	}))
	defer middleman.Close()

	// Coordinator dispatching every shard through the middleman.
	_, coord := newTestServer(t, Config{Workers: []string{middleman.URL}})
	cs := &spec.CampaignSpec{Fields: []string{"CESM/CLOUD"}, Formats: []string{"posit8"}, N: 256, TrialsPerBit: 2, Seed: 7}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	coordClient := NewClient(coord.URL, nil)
	st, err := coordClient.SubmitCampaign(ctx, cs, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != jobComplete {
		t.Fatalf("campaign state = %s (%s), want complete", st.State, st.Error)
	}
	if corrupted.Load() != 1 {
		t.Fatalf("middleman corrupted %d responses, want exactly 1", corrupted.Load())
	}
	if shardCalls.Load() < 2 {
		t.Fatalf("worker saw %d shard calls, want >= 2 (corrupt attempt + retry)", shardCalls.Load())
	}

	// The published CSV must be byte-identical to a fault-free local
	// run of the same campaign — the corrupted body never reached the
	// journal.
	_, local := newTestServer(t, Config{})
	lst, err := NewClient(local.URL, nil).SubmitCampaign(ctx, cs, true)
	if err != nil {
		t.Fatal(err)
	}
	var gotCSV, wantCSV bytes.Buffer
	if err := coordClient.CampaignResult(ctx, st.ID, "CESM/CLOUD", "posit8", &gotCSV); err != nil {
		t.Fatal(err)
	}
	if err := NewClient(local.URL, nil).CampaignResult(ctx, lst.ID, "CESM/CLOUD", "posit8", &wantCSV); err != nil {
		t.Fatal(err)
	}
	if gotCSV.Len() == 0 || !bytes.Equal(gotCSV.Bytes(), wantCSV.Bytes()) {
		t.Fatalf("distributed CSV (%d bytes) differs from local baseline (%d bytes)",
			gotCSV.Len(), wantCSV.Len())
	}
}

func TestDeriveRetryAfter(t *testing.T) {
	cases := []struct {
		queued, depth, want int
	}{
		{0, 64, 1},    // empty queue: come right back
		{1, 64, 1},    // nearly empty
		{32, 64, 7},   // half full: ~half the saturated wait
		{64, 64, 15},  // saturated
		{1, 1, 15},    // tiny queue saturates immediately
		{200, 64, 30}, // recovered backlog beyond depth: capped
		{5, 0, 1},     // defensive: no configured depth
	}
	for _, c := range cases {
		if got := deriveRetryAfter(c.queued, c.depth); got != c.want {
			t.Errorf("deriveRetryAfter(%d, %d) = %d, want %d", c.queued, c.depth, got, c.want)
		}
	}
}

func TestBackpressureMetricsAndDerivedRetryAfter(t *testing.T) {
	// No Start: nothing drains the queue, so depth 2 fills after two
	// submissions and the third is rejected with the derived hint.
	srv, err := New(Config{DataDir: t.TempDir(), QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		if resp := postJSON(t, ts.URL+"/v1/campaigns", tinyCampaign, nil); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d = %d, want 202", i, resp.StatusCode)
		}
	}
	resp := postJSON(t, ts.URL+"/v1/campaigns", tinyCampaign, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit = %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 || ra > 30 {
		t.Fatalf("Retry-After %q, want an integer in [1, 30]", resp.Header.Get("Retry-After"))
	}
	if want := deriveRetryAfter(2, 2); ra != want {
		t.Errorf("Retry-After = %d, want derived %d for a saturated depth-2 queue", ra, want)
	}

	var m struct {
		Backpressure backpressure `json:"backpressure"`
	}
	getJSON(t, ts.URL+"/metrics", &m)
	bp := m.Backpressure
	if bp.Queued != 2 || bp.QueueDepth != 2 || bp.Rejected != 1 || bp.RetryAfterSeconds != ra {
		t.Errorf("backpressure = %+v, want queued 2/2, rejected 1, retry_after %d", bp, ra)
	}
}
