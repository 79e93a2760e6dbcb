package serve

// Cluster-mode tests: the worker protocol endpoints and the
// coordinator's dispatcher, including the tentpole guarantee that a
// distributed campaign's CSVs are byte-identical to a single-node run
// (TestDistributedEquivalence) and that shards move off a dead worker
// (TestDeadWorkerReassignment).

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"positres/internal/core"
	"positres/internal/numfmt"
	"positres/internal/sdrbench"
	"positres/internal/spec"
	"positres/internal/telemetry"
)

// clusterSpec is a multi-pair campaign small enough for tests but
// large enough to fan out: 2 fields × 2 formats × (8/4 + 16/4) bit
// shards = 12 shards.
func clusterSpec() *spec.CampaignSpec {
	return &spec.CampaignSpec{
		Fields:       []string{"CESM/CLOUD", "HACC/vx"},
		Formats:      []string{"posit8", "posit16"},
		N:            256,
		TrialsPerBit: 2,
		Seed:         7,
		BitsPerShard: 4,
	}
}

// newWorkerFleet starts n plain positserve instances and returns their
// base URLs. Each worker is a full server; only /v1/shards matters
// here.
func newWorkerFleet(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		_, ts := newTestServer(t, Config{})
		urls[i] = ts.URL
	}
	return urls
}

// runCampaign submits cs with ?wait=1 via the typed client and fails
// the test unless the campaign completes.
func runCampaign(t *testing.T, baseURL string, cs *spec.CampaignSpec) *CampaignStatus {
	t.Helper()
	client := NewClient(baseURL, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st, err := client.SubmitCampaign(ctx, cs, true)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st.State != "complete" {
		t.Fatalf("state = %q, want complete (error: %s, shards %+v)", st.State, st.Error, st.Shards)
	}
	return st
}

// resultCSVs fetches every published result CSV of a campaign, keyed
// by "field/format".
func resultCSVs(t *testing.T, baseURL string, st *CampaignStatus) map[string][]byte {
	t.Helper()
	client := NewClient(baseURL, nil)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	out := map[string][]byte{}
	for _, ref := range st.Results {
		var buf bytes.Buffer
		if err := client.CampaignResult(ctx, st.ID, ref.Field, ref.Format, &buf); err != nil {
			t.Fatalf("results %s/%s: %v", ref.Field, ref.Format, err)
		}
		out[ref.Field+"/"+ref.Format] = buf.Bytes()
	}
	return out
}

func TestDistributedEquivalence(t *testing.T) {
	cs := clusterSpec()

	// Baseline: the same campaign on a single node.
	_, single := newTestServer(t, Config{})
	singleStatus := runCampaign(t, single.URL, cs)
	want := resultCSVs(t, single.URL, singleStatus)

	// Distributed: a coordinator fanning shards out to three workers.
	workers := newWorkerFleet(t, 3)
	coord, coordTS := newTestServer(t, Config{Workers: workers})
	distStatus := runCampaign(t, coordTS.URL, cs)
	got := resultCSVs(t, coordTS.URL, distStatus)

	if len(want) != 4 || len(got) != len(want) {
		t.Fatalf("result sets differ: single %d, distributed %d", len(want), len(got))
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Fatalf("distributed run missing result %s", key)
		}
		if !bytes.Equal(w, g) {
			t.Errorf("%s: distributed CSV differs from single-node (%d vs %d bytes)", key, len(g), len(w))
		}
	}

	// Every shard went over the wire: the cluster snapshot's completed
	// dispatches sum to the shard total, and each worker is present.
	snap := coord.clusterMetrics.Snapshot()
	if len(snap.Workers) != 3 {
		t.Fatalf("cluster workers = %d, want 3", len(snap.Workers))
	}
	var completed int64
	for url, w := range snap.Workers {
		completed += w.ShardsCompleted
		if w.ShardsFailed != 0 {
			t.Errorf("worker %s: %d failed dispatches, want 0", url, w.ShardsFailed)
		}
	}
	if wantShards := int64(cs.TotalShards()); completed != wantShards {
		t.Errorf("completed dispatches = %d, want %d", completed, wantShards)
	}
	// Every merged shard travelled as one block, and nothing fell back.
	if snap.WireFrames != int64(cs.TotalShards()) || snap.WireBytes == 0 || snap.WireFallbacks != 0 {
		t.Errorf("wire_frames = %d wire_bytes = %d fallbacks = %d, want %d, > 0 and 0",
			snap.WireFrames, snap.WireBytes, snap.WireFallbacks, cs.TotalShards())
	}

	// /metrics exposes the same snapshot under "cluster".
	var m struct {
		Cluster *struct {
			WireFrames    int64 `json:"wire_frames"`
			WireBytes     int64 `json:"wire_bytes"`
			WireFallbacks int64 `json:"wire_csv_fallbacks"`
			Workers       map[string]struct {
				ShardsCompleted uint64 `json:"shards_completed"`
			} `json:"workers"`
		} `json:"cluster"`
	}
	getJSON(t, coordTS.URL+"/metrics", &m)
	if m.Cluster == nil || len(m.Cluster.Workers) != 3 {
		t.Fatalf("/metrics cluster section = %+v, want 3 workers", m.Cluster)
	}
	if m.Cluster.WireFrames != snap.WireFrames || m.Cluster.WireBytes != snap.WireBytes || m.Cluster.WireFallbacks != 0 {
		t.Errorf("/metrics cluster wire counters = %d/%d/%d, want %d/%d/0",
			m.Cluster.WireFrames, m.Cluster.WireBytes, m.Cluster.WireFallbacks, snap.WireFrames, snap.WireBytes)
	}
}

func TestDeadWorkerReassignment(t *testing.T) {
	// One live worker and one that is already unreachable: shards
	// dispatched to the dead one fail, the runner retries, and pick
	// moves them to the live worker — counted as reassignments.
	live := newWorkerFleet(t, 1)
	_, deadTS := newTestServer(t, Config{})
	deadURL := deadTS.URL
	deadTS.Close()

	// Two concurrent shard workers: with the pool's first pick taking
	// the least-busy (lowest-URL) worker and the second pick the other,
	// the dead worker is guaranteed dispatches regardless of which
	// random httptest port sorts first.
	coord, coordTS := newTestServer(t, Config{
		Workers:          append([]string{deadURL}, live...),
		CampaignWorkers:  2,
		ClusterRetryBase: 10 * time.Millisecond,
	})
	cs := clusterSpec()
	st := runCampaign(t, coordTS.URL, cs)
	if st.Shards.Done != cs.TotalShards() {
		t.Errorf("shards done = %d, want %d", st.Shards.Done, cs.TotalShards())
	}

	snap := coord.clusterMetrics.Snapshot()
	if snap.Reassignments == 0 {
		t.Error("reassignments = 0, want > 0 after a dead worker")
	}
	dead, ok := snap.Workers[deadURL]
	if !ok || dead.ShardsFailed == 0 {
		t.Errorf("dead worker stats = %+v, want failed dispatches", dead)
	}

	// The CSVs still match a single-node run byte for byte.
	_, single := newTestServer(t, Config{})
	want := resultCSVs(t, single.URL, runCampaign(t, single.URL, cs))
	got := resultCSVs(t, coordTS.URL, st)
	for key, w := range want {
		if !bytes.Equal(w, got[key]) {
			t.Errorf("%s: CSV differs from single-node after reassignment", key)
		}
	}
}

func TestRunShardEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	client := NewClient(ts.URL, nil)

	cs := &spec.CampaignSpec{
		Fields:       []string{"CESM/CLOUD"},
		Formats:      []string{"posit8"},
		N:            256,
		TrialsPerBit: 2,
		Seed:         7,
	}
	if verr := cs.Validate(); verr != nil {
		t.Fatal(verr)
	}
	ctx := context.Background()
	got, _, err := client.RunShardStats(ctx, ShardRequest{Spec: *cs, BitLo: 0, BitHi: 8})
	if err != nil {
		t.Fatalf("RunShardStats: %v", err)
	}

	// The worker must produce exactly what the local engine produces.
	codec, err := numfmt.Lookup("posit8")
	if err != nil {
		t.Fatal(err)
	}
	field, err := sdrbench.Lookup("CESM/CLOUD")
	if err != nil {
		t.Fatal(err)
	}
	data := sdrbench.ToFloat64(field.Generate(cs.N, cs.Seed))
	want, err := core.RunRange(ctx, core.ConfigFromSpec(cs), codec, "CESM/CLOUD", data, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("remote trials differ from local: got %d, want %d", len(got), len(want))
	}
}

// TestRunShardSharesDataset: the eight shards of one cluster
// operation — two formats × four bit ranges of one (field, n, seed) —
// arriving at a worker at once generate the field once, and /metrics
// reports it.
func TestRunShardSharesDataset(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	client := NewClient(ts.URL, nil)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for _, format := range []string{"posit32", "ieee32"} {
		cs := spec.CampaignSpec{
			Fields:       []string{"Nyx/temperature"},
			Formats:      []string{format},
			N:            5000,
			TrialsPerBit: 2,
			Seed:         11,
		}
		if verr := cs.Validate(); verr != nil {
			t.Fatal(verr)
		}
		for lo := 0; lo < 32; lo += 8 {
			wg.Add(1)
			go func(req ShardRequest) {
				defer wg.Done()
				trials, _, err := client.RunShardStats(context.Background(), req)
				if err == nil && len(trials) != 8*2 {
					err = fmt.Errorf("%s [%d, %d): %d trials", format, req.BitLo, req.BitHi, len(trials))
				}
				errs <- err
			}(ShardRequest{Spec: cs, BitLo: lo, BitHi: lo + 8})
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	var m struct {
		Campaign telemetry.Snapshot `json:"campaign"`
	}
	getJSON(t, ts.URL+"/metrics", &m)
	if m.Campaign.DatasetsGenerated != 1 || m.Campaign.DatasetGenerateNS <= 0 {
		t.Fatalf("datasets_generated = %d (%d ns), want 1 generation for 8 shards of one dataset",
			m.Campaign.DatasetsGenerated, m.Campaign.DatasetGenerateNS)
	}
}

func TestRunShardValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	cases := []struct {
		name, body, code string
	}{
		{"multi pair", `{"spec":{"fields":["CESM/CLOUD","HACC/vx"],"formats":["posit8"],"n":16},"bit_lo":0,"bit_hi":8}`, "bad_request"},
		{"unknown format", `{"spec":{"fields":["CESM/CLOUD"],"formats":["posit99"],"n":16},"bit_lo":0,"bit_hi":8}`, "unknown_format"},
		{"unknown field", `{"spec":{"fields":["NOPE/nope"],"formats":["posit8"],"n":16},"bit_lo":0,"bit_hi":8}`, "unknown_field"},
		{"bad bit range", `{"spec":{"fields":["CESM/CLOUD"],"formats":["posit8"],"n":16},"bit_lo":4,"bit_hi":99}`, "bad_request"},
		{"empty range", `{"spec":{"fields":["CESM/CLOUD"],"formats":["posit8"],"n":16},"bit_lo":3,"bit_hi":3}`, "bad_request"},
		{"unknown key", `{"spec":{"fields":["CESM/CLOUD"],"formats":["posit8"],"n":16},"bit_lo":0,"bit_hi":8,"bogus":1}`, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var env errorBody
			resp := postJSON(t, ts.URL+"/v1/shards", tc.body, &env)
			if resp.StatusCode != http.StatusBadRequest || env.Error.Code != tc.code {
				t.Errorf("status %d code %q, want 400 %s", resp.StatusCode, env.Error.Code, tc.code)
			}
		})
	}
}

func TestWorkerRegistration(t *testing.T) {
	srv, ts := newTestServer(t, Config{})

	// Register two workers, one of them twice: idempotent.
	var list workerList
	for _, body := range []string{
		`{"url":"http://10.0.0.1:8080"}`,
		`{"url":"http://10.0.0.2:8080"}`,
		`{"url":"http://10.0.0.1:8080"}`,
	} {
		resp := postJSON(t, ts.URL+"/v1/workers", body, &list)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("register status = %d, want 200", resp.StatusCode)
		}
	}
	if len(list.Workers) != 2 {
		t.Fatalf("workers = %+v, want 2", list.Workers)
	}
	if list.Workers[0].URL != "http://10.0.0.1:8080" || list.Workers[1].URL != "http://10.0.0.2:8080" {
		t.Errorf("workers not sorted by URL: %+v", list.Workers)
	}
	if srv.cluster.size() != 2 {
		t.Errorf("dispatcher size = %d, want 2", srv.cluster.size())
	}

	// GET agrees with the POST response.
	var got workerList
	getJSON(t, ts.URL+"/v1/workers", &got)
	if !reflect.DeepEqual(got, list) {
		t.Errorf("GET /v1/workers = %+v, want %+v", got, list)
	}

	// Relative URLs are rejected before they poison the pool.
	var env errorBody
	resp := postJSON(t, ts.URL+"/v1/workers", `{"url":"not a url"}`, &env)
	if resp.StatusCode != http.StatusBadRequest || env.Error.Code != "bad_request" {
		t.Errorf("bad url: status %d code %q, want 400 bad_request", resp.StatusCode, env.Error.Code)
	}

	// Both verbs share the path; anything else gets a JSON 405 whose
	// Allow header advertises both.
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/workers", nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	if dresp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE status = %d, want 405", dresp.StatusCode)
	}
	allow := dresp.Header.Get("Allow")
	if !strings.Contains(allow, "GET") || !strings.Contains(allow, "POST") {
		t.Errorf("Allow = %q, want GET and POST", allow)
	}
}

func TestDispatcherPick(t *testing.T) {
	d := newDispatcher([]string{"http://a", "http://b"}, time.Second, time.Millisecond, nil)

	// Fresh dispatcher: deterministic URL tie-break.
	w, reassigned, err := d.pick("s1")
	if err != nil || w.url != "http://a" || reassigned {
		t.Fatalf("pick = %v %v %v, want a false nil", w, reassigned, err)
	}
	// a is now busier, so b wins the next pick.
	w2, _, _ := d.pick("s2")
	if w2.url != "http://b" {
		t.Fatalf("second pick = %s, want b", w2.url)
	}

	// A failed shard prefers a different worker and counts as a
	// reassignment.
	d.mu.Lock()
	d.prevHolder["s3"] = "http://a"
	d.mu.Unlock()
	w3, reassigned, _ := d.pick("s3")
	if w3.url != "http://b" || !reassigned {
		t.Fatalf("reassign pick = %s %v, want b true", w3.url, reassigned)
	}

	// With every worker in backoff, pick still returns one (fail fast
	// beats deadlock).
	d.mu.Lock()
	for _, w := range d.workers {
		w.backoffUntil = time.Now().Add(time.Hour)
	}
	d.mu.Unlock()
	if _, _, err := d.pick("s4"); err != nil {
		t.Fatalf("pick with all in backoff: %v", err)
	}

	// No workers at all is the only error.
	empty := newDispatcher(nil, time.Second, time.Millisecond, nil)
	if _, _, err := empty.pick("s"); err == nil {
		t.Fatal("pick on empty dispatcher: want error")
	}
	if hook := empty.executeFor(clusterSpec()); hook != nil {
		t.Fatal("executeFor with no workers should be nil (local compute)")
	}
}
