package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"positres/internal/core"
	"positres/internal/spec"
	"positres/internal/store"
)

// tinyCampaign is a sub-second campaign body used across tests.
const tinyCampaign = `{"fields":["CESM/CLOUD"],"formats":["posit8"],"n":256,"trials_per_bit":2,"seed":7}`

// newTestServer builds a started Server over a httptest listener; the
// cleanup drains workers before the temp dir is removed.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv.Start(ctx)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		cancel()
		srv.Wait()
	})
	return srv, ts
}

// postJSON posts body and decodes the JSON response into out (unless
// out is nil), returning the raw response.
func postJSON(t *testing.T, url, body string, out interface{}) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := resp.Body.Close(); err != nil {
			t.Error(err)
		}
	}()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decode %q: %v", raw, err)
		}
	}
	return resp
}

func getJSON(t *testing.T, url string, out interface{}) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := resp.Body.Close(); err != nil {
			t.Error(err)
		}
	}()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decode %q: %v", raw, err)
		}
	}
	return resp
}

func TestInjectEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// posit8 1.0 encodes as 0x40; flipping bit 6 (the regime MSB)
	// lands on 0x00 = zero, so rel_err is exactly 1.
	var got map[string]interface{}
	resp := postJSON(t, ts.URL+"/v1/inject", `{"format":"posit8","value":1.0,"bit":6}`, &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (%v)", resp.StatusCode, got)
	}
	want := map[string]interface{}{
		"orig_bits":    "0x40",
		"faulty_bits":  "0x0",
		"faulty_value": 0.0,
		"rel_err":      1.0,
		"bit_field":    "regime",
		"cached":       false,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}

	// Same (format, pattern, bit) triple via the pattern form must hit
	// the LRU now.
	got = nil
	postJSON(t, ts.URL+"/v1/inject", `{"format":"posit8","pattern":"0x40","bit":6}`, &got)
	if got["cached"] != true {
		t.Errorf("second query cached = %v, want true", got["cached"])
	}
	if got["orig_value"] != 1.0 {
		t.Errorf("pattern-form orig_value = %v, want 1 (decoded)", got["orig_value"])
	}
}

func TestInjectNonFiniteAsStrings(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// ieee32 1.0 with its exponent MSB (bit 30) flipped becomes
	// 2^128 = +Inf in float32: catastrophic, and the JSON must carry
	// the string "+Inf", not a broken number.
	var got map[string]interface{}
	resp := postJSON(t, ts.URL+"/v1/inject", `{"format":"ieee32","value":1.0,"bit":30}`, &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (%v)", resp.StatusCode, got)
	}
	if got["faulty_value"] != "+Inf" {
		t.Errorf("faulty_value = %v, want \"+Inf\"", got["faulty_value"])
	}
	if got["catastrophic"] != true {
		t.Errorf("catastrophic = %v, want true", got["catastrophic"])
	}
}

func TestInjectValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body, code string
	}{
		{"bad json", `{`, "bad_request"},
		{"unknown field in body", `{"format":"posit8","value":1,"bit":0,"x":1}`, "bad_request"},
		{"unknown format", `{"format":"posit7","value":1,"bit":0}`, "unknown_format"},
		{"missing bit", `{"format":"posit8","value":1}`, "bad_request"},
		{"bit out of range", `{"format":"posit8","value":1,"bit":8}`, "bad_request"},
		{"neither value nor pattern", `{"format":"posit8","bit":0}`, "bad_request"},
		{"both value and pattern", `{"format":"posit8","value":1,"pattern":"0x40","bit":0}`, "bad_request"},
		{"unparseable pattern", `{"format":"posit8","pattern":"zz","bit":0}`, "bad_request"},
		{"pattern too wide", `{"format":"posit8","pattern":"0x140","bit":0}`, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var env struct {
				Error struct{ Code, Message string }
			}
			resp := postJSON(t, ts.URL+"/v1/inject", tc.body, &env)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status = %d, want 400", resp.StatusCode)
			}
			if env.Error.Code != tc.code {
				t.Errorf("code = %q, want %q (%s)", env.Error.Code, tc.code, env.Error.Message)
			}
		})
	}
}

func TestErrorsAreJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Unknown route → JSON 404.
	var env struct {
		Error struct{ Code string }
	}
	resp := getJSON(t, ts.URL+"/nope", &env)
	if resp.StatusCode != http.StatusNotFound || env.Error.Code != "not_found" {
		t.Errorf("unrouted: status %d code %q, want 404 not_found", resp.StatusCode, env.Error.Code)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("unrouted Content-Type = %q", ct)
	}

	// Wrong verb on a real route → JSON 405 with Allow.
	env.Error.Code = ""
	resp = getJSON(t, ts.URL+"/v1/inject", &env)
	if resp.StatusCode != http.StatusMethodNotAllowed || env.Error.Code != "method_not_allowed" {
		t.Errorf("verb mismatch: status %d code %q, want 405 method_not_allowed", resp.StatusCode, env.Error.Code)
	}
	if allow := resp.Header.Get("Allow"); allow != "POST" {
		t.Errorf("Allow = %q, want POST", allow)
	}

	// Unknown campaign id → JSON 404.
	env.Error.Code = ""
	resp = getJSON(t, ts.URL+"/v1/campaigns/0123456789abcdef", &env)
	if resp.StatusCode != http.StatusNotFound || env.Error.Code != "not_found" {
		t.Errorf("unknown id: status %d code %q, want 404 not_found", resp.StatusCode, env.Error.Code)
	}
}

func TestCampaignLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var st CampaignStatus
	resp := postJSON(t, ts.URL+"/v1/campaigns?wait=1", tinyCampaign, &st)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status = %d, want 200 (%+v)", resp.StatusCode, st)
	}
	if st.State != "complete" {
		t.Fatalf("state = %q, want complete (error: %s)", st.State, st.Error)
	}
	if st.Shards.Done != 1 || st.Shards.Total != 1 {
		t.Errorf("shards = %+v, want 1/1 done", st.Shards)
	}
	if st.Request.TrialsPerBit != 2 || st.Request.N != 256 || st.Request.BitsPerShard != 8 {
		t.Errorf("normalized request = %+v", st.Request)
	}
	if len(st.Results) != 1 {
		t.Fatalf("results = %+v, want one", st.Results)
	}

	// Status resource agrees.
	var st2 CampaignStatus
	getJSON(t, ts.URL+st.StatusURL, &st2)
	if st2.State != "complete" || st2.ID != st.ID {
		t.Errorf("status = %+v", st2)
	}

	// The CSV streams with the campaign schema header and one row per
	// (bit, trial): 8 bits × 2 trials.
	csvResp, err := http.Get(ts.URL + st.Results[0].URL)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := csvResp.Body.Close(); err != nil {
			t.Error(err)
		}
	}()
	body, err := io.ReadAll(csvResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ct := csvResp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Errorf("results Content-Type = %q", ct)
	}
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	if len(lines) != 1+8*2 {
		t.Errorf("CSV rows = %d, want header + 16", len(lines))
	}
	if !bytes.HasPrefix(lines[0], []byte("field,codec,")) {
		t.Errorf("CSV header = %q", lines[0])
	}
}

func TestResultsNotReady(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	j, verr := srv.jobs.submit(spec.CampaignSpec{Fields: []string{"CESM/CLOUD"}, Formats: []string{"posit8"}, N: 256, TrialsPerBit: 2})
	if verr != nil {
		t.Fatal(verr)
	}
	// Results may race completion; accept 409 not_ready or, if the
	// tiny job already finished, 200. Either way it must be well-formed.
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + j.id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Error(err)
	}
	if resp.StatusCode != http.StatusConflict && resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d, want 409 or 200", resp.StatusCode)
	}
}

func TestBackpressure(t *testing.T) {
	// No Start: nothing drains the queue, so depth 1 fills after one
	// submission and the second gets 429 + Retry-After.
	srv, err := New(Config{DataDir: t.TempDir(), QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/campaigns", tinyCampaign, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d, want 202", resp.StatusCode)
	}
	var env struct {
		Error struct{ Code string }
	}
	resp = postJSON(t, ts.URL+"/v1/campaigns", tinyCampaign, &env)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit = %d, want 429", resp.StatusCode)
	}
	if env.Error.Code != "queue_full" {
		t.Errorf("code = %q, want queue_full", env.Error.Code)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After")
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body, code string
	}{
		{"no fields", `{"formats":["posit8"]}`, "bad_request"},
		{"no formats", `{"fields":["CESM/CLOUD"]}`, "bad_request"},
		{"unknown field", `{"fields":["CESM/NOPE"],"formats":["posit8"]}`, "unknown_field"},
		{"unknown format", `{"fields":["CESM/CLOUD"],"formats":["posit7"]}`, "unknown_format"},
		{"duplicate pair", `{"fields":["CESM/CLOUD"],"formats":["posit8","posit8"]}`, "bad_request"},
		{"bad timeout", `{"fields":["CESM/CLOUD"],"formats":["posit8"],"shard_timeout":"fast"}`, "bad_request"},
		{"negative trials", `{"fields":["CESM/CLOUD"],"formats":["posit8"],"trials_per_bit":-1}`, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var env struct {
				Error struct{ Code, Message string }
			}
			resp := postJSON(t, ts.URL+"/v1/campaigns", tc.body, &env)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status = %d, want 400", resp.StatusCode)
			}
			if env.Error.Code != tc.code {
				t.Errorf("code = %q, want %q (%s)", env.Error.Code, tc.code, env.Error.Message)
			}
		})
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postJSON(t, ts.URL+"/v1/inject", `{"format":"posit16","value":3.5,"bit":3}`, nil)
	var st CampaignStatus
	postJSON(t, ts.URL+"/v1/campaigns?wait=1", tinyCampaign, &st)

	var m struct {
		Campaign struct {
			Schema     string `json:"schema"`
			Injections int64  `json:"injections"`
		} `json:"campaign"`
		HTTP struct {
			Endpoints map[string]struct {
				Requests int64 `json:"requests"`
			} `json:"endpoints"`
		} `json:"http"`
		Jobs        map[string]int `json:"jobs"`
		InjectCache cacheStats     `json:"inject_cache"`
	}
	resp := getJSON(t, ts.URL+"/metrics", &m)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if m.Campaign.Schema != "positres-telemetry/v1" {
		t.Errorf("campaign schema = %q", m.Campaign.Schema)
	}
	if m.Campaign.Injections != 16 {
		t.Errorf("injections = %d, want 16 from the wait campaign", m.Campaign.Injections)
	}
	if ep, ok := m.HTTP.Endpoints["POST /v1/inject"]; !ok || ep.Requests != 1 {
		t.Errorf("http endpoints = %+v, want POST /v1/inject ×1", m.HTTP.Endpoints)
	}
	if m.Jobs["complete"] != 1 {
		t.Errorf("jobs = %v, want complete:1", m.Jobs)
	}
	if m.InjectCache.Misses == 0 {
		t.Errorf("inject cache stats = %+v, want a recorded miss", m.InjectCache)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var h healthBody
	resp := getJSON(t, ts.URL+"/healthz", &h)
	if resp.StatusCode != http.StatusOK || h.Status != "ok" || h.Draining {
		t.Errorf("healthz = %d %+v", resp.StatusCode, h)
	}
}

func TestDrainRejectsSubmissions(t *testing.T) {
	srv, err := New(Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv.Start(ctx)
	cancel()
	srv.Wait()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var env struct {
		Error struct{ Code string }
	}
	resp := postJSON(t, ts.URL+"/v1/campaigns", tinyCampaign, &env)
	if resp.StatusCode != http.StatusServiceUnavailable || env.Error.Code != "draining" {
		t.Errorf("submit during drain = %d %q, want 503 draining", resp.StatusCode, env.Error.Code)
	}
	var h healthBody
	getJSON(t, ts.URL+"/healthz", &h)
	if !h.Draining {
		t.Error("healthz.draining = false during drain")
	}
}

// TestRecovery pins the restart story end to end in-process: a
// completed job survives as terminal state; a job whose CSVs were
// lost after the manifest completed is re-enqueued on construction
// and republishes byte-identical results from the journal.
func TestRecovery(t *testing.T) {
	dir := t.TempDir()

	// First server: run one campaign to completion and keep its CSV.
	srv1, ts1 := newTestServer(t, Config{DataDir: dir})
	var st CampaignStatus
	resp := postJSON(t, ts1.URL+"/v1/campaigns?wait=1", tinyCampaign, &st)
	if resp.StatusCode != http.StatusOK || st.State != "complete" {
		t.Fatalf("seed campaign: %d %+v", resp.StatusCode, st)
	}
	csv1 := fetchCSV(t, ts1.URL+st.Results[0].URL)
	_ = srv1

	// Second server on the same data dir, before any Start: the job
	// must already be terminal-complete with its result listed.
	srv2, err := New(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	j2, ok := srv2.jobs.get(st.ID)
	if !ok {
		t.Fatal("job not recovered")
	}
	if got := statusOf(j2); got.State != "complete" || len(got.Results) != 1 {
		t.Fatalf("recovered terminal job = %+v", got)
	}

	// A published store that is gone (a crash between manifest
	// completion and publication) or unreadable (written by an older
	// store version) counts as missing: the next server must re-enqueue
	// the job, replay the journal, and republish identical bytes.
	storePath := filepath.Join(dir, "jobs", st.ID, store.FileName("CESM/CLOUD", "posit8"))
	for _, damage := range []struct {
		name string
		do   func() error
	}{
		{"deleted", func() error { return os.Remove(storePath) }},
		{"older version", func() error {
			raw, err := os.ReadFile(storePath)
			if err != nil {
				return err
			}
			raw[4] = store.Version - 1 // the header's version byte, after "PTSC"
			return os.WriteFile(storePath, raw, 0o644)
		}},
	} {
		if err := damage.do(); err != nil {
			t.Fatal(err)
		}
		srv3, ts3 := newTestServer(t, Config{DataDir: dir})
		waitForState(t, srv3, st.ID, "complete")
		j3, _ := srv3.jobs.get(st.ID)
		got := statusOf(j3)
		if got.Shards.Resumed != 1 {
			t.Errorf("%s store: recovered shards = %+v, want 1 resumed (journal replay, not recompute)", damage.name, got.Shards)
		}
		csv3 := fetchCSV(t, ts3.URL+got.Results[0].URL)
		if !bytes.Equal(csv1, csv3) {
			t.Errorf("%s store: republished CSV differs from the original run", damage.name)
		}
	}

	// A data dir written by store Version 2 (testdata/v2datadir: the
	// same campaign, completed by a Version 2 server) holds a store
	// Open refuses and a journal record whose block no Version 3
	// decoder reads. The server must treat the store as missing,
	// recompute the shard the record no longer vouches for, and
	// republish the CSV this build computes.
	old := t.TempDir()
	copyTree(t, filepath.Join("testdata", "v2datadir"), old)
	const oldID = "0d948d40d84b59d8"
	oldStore := filepath.Join(old, "jobs", oldID, store.FileName("CESM/CLOUD", "posit8"))
	if _, err := store.Open(oldStore); !errors.Is(err, store.ErrVersion) {
		t.Fatalf("version 2 fixture store opened with %v, want ErrVersion", err)
	}
	srv4, ts4 := newTestServer(t, Config{DataDir: old})
	waitForState(t, srv4, oldID, "complete")
	j4, _ := srv4.jobs.get(oldID)
	got := statusOf(j4)
	if got.Shards.Done != 1 || got.Shards.Resumed != 0 {
		t.Errorf("version 2 data dir: shards = %+v, want the one shard recomputed", got.Shards)
	}
	if csv4 := fetchCSV(t, ts4.URL+got.Results[0].URL); !bytes.Equal(csv1, csv4) {
		t.Error("version 2 data dir: republished CSV differs from this build's run")
	}
	rd, err := store.Open(oldStore)
	if err != nil {
		t.Fatalf("republished store: %v", err)
	}
	if err := rd.Close(); err != nil {
		t.Fatal(err)
	}
}

// copyTree copies the regular files under src into dst, keeping their
// relative paths.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Join(dst, filepath.Dir(rel)), 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), raw, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// fetchCSV downloads a results URL, failing the test on any error.
func fetchCSV(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := resp.Body.Close(); err != nil {
			t.Error(err)
		}
	}()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results status = %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// waitForState polls a job until it reaches want (or the deadline).
func waitForState(t *testing.T, srv *Server, id, want string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := srv.jobs.get(id)
		if !ok {
			t.Fatalf("job %s not present", id)
		}
		st := statusOf(j)
		switch st.State {
		case want:
			return
		case "failed":
			t.Fatalf("job failed: %s", st.Error)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %q", id, want)
}

func TestValidJobID(t *testing.T) {
	cases := map[string]bool{
		"0123456789abcdef": true,
		"0123456789ABCDEF": false, // upper case never generated
		"..":               false,
		"":                 false,
		"0123456789abcde":  false, // short
		"0123456789abcdeg": false, // non-hex
	}
	for id, want := range cases {
		if got := validJobID(id); got != want {
			t.Errorf("validJobID(%q) = %v, want %v", id, got, want)
		}
	}
}

func TestLRUEviction(t *testing.T) {
	c := newInjectCache(2)
	k := func(i int) cacheKey { return cacheKey{format: "posit8", pattern: uint64(i), bit: 0} }
	c.put(k(1), core.Flip{RegimeK: 1})
	c.put(k(2), core.Flip{RegimeK: 2})
	if _, ok := c.get(k(1)); !ok { // touch 1 → 2 becomes LRU
		t.Fatal("k1 missing")
	}
	c.put(k(3), core.Flip{RegimeK: 3}) // evicts 2
	if _, ok := c.get(k(2)); ok {
		t.Error("k2 survived eviction")
	}
	if _, ok := c.get(k(1)); !ok {
		t.Error("k1 evicted out of LRU order")
	}
	st := c.stats()
	if st.Size != 2 || st.Capacity != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestShardsTotalMultiFormat(t *testing.T) {
	req := spec.CampaignSpec{Fields: []string{"CESM/CLOUD"}, Formats: []string{"posit16", "ieee32"}, BitsPerShard: 4}
	if verr := (&req).Validate(); verr != nil {
		t.Fatal(verr)
	}
	if shards := req.TotalShards(); shards != 4+8 { // 16/4 + 32/4
		t.Errorf("shards = %d, want 12", shards)
	}
}

func TestJSONFloatAndHexBits(t *testing.T) {
	type payload struct {
		A JSONFloat `json:"a"`
		B JSONFloat `json:"b"`
		C JSONFloat `json:"c"`
		D JSONFloat `json:"d"`
		E HexBits   `json:"e"`
	}
	in := payload{JSONFloat(inf()), JSONFloat(-inf()), JSONFloat(nan()), 1.5, HexBits(0xdeadbeefcafef00d)}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"a":"+Inf","b":"-Inf","c":"NaN","d":1.5,"e":"0xdeadbeefcafef00d"}`
	if string(raw) != want {
		t.Errorf("got %s, want %s", raw, want)
	}
	// Round trip: unmarshal then re-marshal reproduces the exact JSON,
	// non-finites included (string compare sidesteps float equality).
	var out payload
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != want {
		t.Errorf("round trip drifted: %s, want %s", again, want)
	}
}

func inf() float64 { return mustParse("+Inf") }
func nan() float64 { return mustParse("NaN") }

// mustParse builds non-finite floats without math imports tripping
// float comparison lint rules in test tables.
func mustParse(s string) float64 {
	var f float64
	if _, err := fmt.Sscanf(s, "%g", &f); err != nil {
		panic(err)
	}
	return f
}
