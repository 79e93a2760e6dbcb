package serve

// Tests of the results endpoint's content negotiation: the default CSV
// representation must stay byte-identical to what the pre-store server
// streamed, and an explicit application/json Accept must switch to the
// positres-aggregate/v1 summary.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"positres/internal/core"
	"positres/internal/store"
)

// completeTinyCampaign runs tinyCampaign to completion and returns its
// terminal status.
func completeTinyCampaign(t *testing.T, tsURL string) CampaignStatus {
	t.Helper()
	var st CampaignStatus
	resp := postJSON(t, tsURL+"/v1/campaigns?wait=1", tinyCampaign, &st)
	if resp.StatusCode != http.StatusOK || st.State != "complete" {
		t.Fatalf("campaign: %d %+v", resp.StatusCode, st)
	}
	if len(st.Results) != 1 {
		t.Fatalf("results = %+v", st.Results)
	}
	return st
}

// getWithAccept issues a GET with an Accept header and returns the
// response; the caller owns the body.
func getWithAccept(t *testing.T, url, accept string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestResultsContentNegotiation pins the negotiated views of one
// result: CSV by default (and under text/csv), the aggregate document
// under application/json, and the typed client fetch of both.
func TestResultsContentNegotiation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	st := completeTinyCampaign(t, ts.URL)
	url := ts.URL + st.Results[0].URL

	csvDefault := fetchCSV(t, url)
	if !strings.HasPrefix(string(csvDefault), "field,codec,") {
		t.Fatalf("default CSV starts %q", csvDefault[:min(len(csvDefault), 40)])
	}

	// An explicit CSV (or wildcard) Accept must not switch views.
	for _, accept := range []string{"text/csv", "*/*", "text/*, */*;q=0.1"} {
		resp := getWithAccept(t, url, accept)
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
			t.Fatalf("Accept %q: content type %q", accept, ct)
		}
		if !bytes.Equal(buf.Bytes(), csvDefault) {
			t.Fatalf("Accept %q: CSV differs from the default view", accept)
		}
	}

	resp := getWithAccept(t, url, "application/json")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("aggregate content type %q", ct)
	}
	doc, err := store.ReadDoc(resp.Body)
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if doc.Field != "CESM/CLOUD" || doc.Codec != "posit8" || !doc.Sealed {
		t.Fatalf("aggregate identity %+v", doc)
	}
	// tinyCampaign: 8 bit positions × 2 trials per bit.
	if doc.Trials != 16 || len(doc.Bits) != 8 {
		t.Fatalf("aggregate size: %d trials over %d bits", doc.Trials, len(doc.Bits))
	}

	// The typed client sees the same document and the same CSV.
	cl := NewClient(ts.URL, nil)
	got, err := cl.FetchAggregate(context.Background(), st.ID, "CESM/CLOUD", "posit8")
	if err != nil {
		t.Fatal(err)
	}
	if got.Trials != doc.Trials || len(got.Bits) != len(doc.Bits) || !got.Sealed {
		t.Fatalf("client aggregate %+v", got)
	}
	var viaClient bytes.Buffer
	if err := cl.CampaignResult(context.Background(), st.ID, "CESM/CLOUD", "posit8", &viaClient); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaClient.Bytes(), csvDefault) {
		t.Fatal("client CSV differs from the default view")
	}
}

// TestMetricsLiveAggregates pins the /metrics mid-campaign aggregate
// section: a running campaign's store snapshot appears keyed by job
// id, and it disappears once the campaign finishes.
func TestMetricsLiveAggregates(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	st := completeTinyCampaign(t, ts.URL)

	var after metricsResponse
	if resp := getJSON(t, ts.URL+"/metrics", &after); resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	if len(after.CampaignAggregates) != 0 {
		t.Fatalf("finished campaign still reported live: %+v", after.CampaignAggregates)
	}

	// Simulate the mid-run window: give the finished job a live writer
	// with one appended shard and read the snapshot the handler serves.
	j, _ := srv.jobs.get(st.ID)
	cw := store.NewCampaignWriter(t.TempDir())
	defer cw.Abort()
	rd, err := store.Open(filepath.Join(j.dir, store.FileName("CESM/CLOUD", "posit8")))
	if err != nil {
		t.Fatal(err)
	}
	trials, err := rd.Trials()
	if cerr := rd.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.AppendShard("CESM/CLOUD", "posit8", 0, 8, trials); err != nil {
		t.Fatal(err)
	}
	j.mu.Lock()
	j.cw = cw
	j.mu.Unlock()
	defer func() {
		j.mu.Lock()
		j.cw = nil
		j.mu.Unlock()
	}()

	var live metricsResponse
	getJSON(t, ts.URL+"/metrics", &live)
	if len(live.CampaignAggregates) != 1 || live.CampaignAggregates[0].ID != st.ID {
		t.Fatalf("live aggregates = %+v", live.CampaignAggregates)
	}
	aggs := live.CampaignAggregates[0].Aggregates
	if len(aggs) != 1 || aggs[0].Sealed || aggs[0].Trials != uint64(len(trials)) {
		t.Fatalf("live snapshot = %+v", aggs)
	}
	// Through JSON and back, the live document still equals the exact
	// fold bit for bit (%v prints shortest round-tripping floats).
	if got, want := fmt.Sprint(aggs[0].BitAggs()), fmt.Sprint(core.AggregateByBit(trials)); got != want {
		t.Fatalf("live aggregates differ from core.AggregateByBit:\n got %s\nwant %s", got, want)
	}
}
