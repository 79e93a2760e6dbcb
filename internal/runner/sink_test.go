package runner

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"positres/internal/core"
	"positres/internal/store"
)

// TestSinkStreamsCampaign is the acceptance test for the store sink:
// a campaign streamed through a store.CampaignWriter must publish
// CSVs byte-identical to the in-memory slab path, per-bit aggregates
// matching core.AggregateByBit, and Results that keep identity and N
// while carrying no trial slab. Workers append their own shards
// concurrently, so the store must come out the same at every worker
// count; under -race (`make race`) this is also the sink's data-race
// check.
func TestSinkStreamsCampaign(t *testing.T) {
	ref, err := Run(context.Background(), testCfg(""))
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Complete() {
		t.Fatalf("reference run incomplete: %+v", ref)
	}
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			testSinkStreams(t, ref, workers)
		})
	}
}

// testSinkStreams runs the sink campaign at one worker count and
// checks every store against the reference slab run.
func testSinkStreams(t *testing.T, ref *Report, workers int) {
	dir := t.TempDir()
	cw := store.NewCampaignWriter(dir)
	defer cw.Abort()
	cfg := testCfg("")
	cfg.Workers = workers
	cfg.Sink = cw
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() {
		t.Fatalf("sink run incomplete: %+v", rep)
	}

	for i, sp := range rep.Specs {
		res := rep.Results[i]
		if res == nil {
			t.Fatalf("%s: no result", sp.Key())
		}
		if res.Trials != nil {
			t.Fatalf("%s: sink run still holds %d trials in the Result", sp.Key(), len(res.Trials))
		}
		if res.Field != sp.Field || res.Codec != sp.Codec || res.N != sp.N || res.N != ref.Results[i].N {
			t.Fatalf("%s: result identity %+v", sp.Key(), res)
		}
		if err := cw.Seal(sp.Field, sp.Codec); err != nil {
			t.Fatal(err)
		}
		r, err := store.Open(filepath.Join(dir, store.FileName(sp.Field, sp.Codec)))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := r.RenderCSV(&got); err != nil {
			t.Fatal(err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if want := renderCSV(t, ref.Results[i]); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s: store CSV differs from slab CSV (%d vs %d bytes)",
				sp.Key(), got.Len(), len(want))
		}
	}
}

// TestSinkFedOnResume pins that journal-resumed shards flow through
// the sink too: run durably without a sink, then resume with one —
// every shard arrives via the journal and the store must still equal
// the reference CSV.
func TestSinkFedOnResume(t *testing.T) {
	stateDir := t.TempDir()
	first, err := Run(context.Background(), testCfg(stateDir))
	if err != nil {
		t.Fatal(err)
	}
	if !first.Complete() {
		t.Fatalf("seed run incomplete: %+v", first)
	}

	storeDir := t.TempDir()
	cw := store.NewCampaignWriter(storeDir)
	defer cw.Abort()
	cfg := testCfg(stateDir)
	cfg.Resume = true
	cfg.Sink = cw
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resumed != testShardTotal || rep.Completed != 0 {
		t.Fatalf("resumed %d completed %d, want all %d resumed", rep.Resumed, rep.Completed, testShardTotal)
	}
	for i, sp := range rep.Specs {
		if rep.Results[i] == nil || rep.Results[i].Trials != nil {
			t.Fatalf("%s: resumed sink result %+v", sp.Key(), rep.Results[i])
		}
		if err := cw.Seal(sp.Field, sp.Codec); err != nil {
			t.Fatal(err)
		}
		r, err := store.Open(filepath.Join(storeDir, store.FileName(sp.Field, sp.Codec)))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := r.RenderCSV(&got); err != nil {
			t.Fatal(err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if want := renderCSV(t, first.Results[i]); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s: resumed store CSV differs from original", sp.Key())
		}
	}
}

// failingSink rejects every shard of one codec, accepting the rest.
// The runner calls it from concurrent shard workers.
type failingSink struct {
	rejectCodec string
	accepted    atomic.Int64
}

func (s *failingSink) AppendShard(field, codec string, bitLo, bitHi int, trials []core.Trial) error {
	if codec == s.rejectCodec {
		return fmt.Errorf("synthetic sink refusal for %s", codec)
	}
	s.accepted.Add(1)
	return nil
}

// TestSinkFailureFailsShardNotCampaign pins graceful degradation: a
// sink that rejects one codec's shards costs those shards (and their
// specs' results), while every other spec completes normally.
func TestSinkFailureFailsShardNotCampaign(t *testing.T) {
	sink := &failingSink{rejectCodec: "ieee32"}
	cfg := testCfg("")
	cfg.Sink = sink
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Partial() {
		t.Fatalf("want a partial campaign, got %+v", rep)
	}
	wantFailed := 2 * 8 // two ieee32 specs × 8 shards each
	if rep.Failed != wantFailed || rep.Completed != testShardTotal-wantFailed {
		t.Fatalf("failed %d completed %d, want %d/%d", rep.Failed, rep.Completed, wantFailed, testShardTotal-wantFailed)
	}
	if n := sink.accepted.Load(); n != int64(testShardTotal-wantFailed) {
		t.Fatalf("sink accepted %d shards, want %d", n, testShardTotal-wantFailed)
	}
	for i, sp := range rep.Specs {
		res := rep.Results[i]
		if sp.Codec == "ieee32" {
			if res != nil {
				t.Fatalf("%s: result for a spec with failed shards", sp.Key())
			}
			continue
		}
		if res == nil || res.Trials != nil {
			t.Fatalf("%s: %+v", sp.Key(), res)
		}
	}
	for _, st := range rep.Shards {
		if st.Codec == "ieee32" {
			if st.State != ShardFailed || !strings.Contains(st.Error, "sink:") {
				t.Fatalf("shard %s: %+v", st.ID(), st)
			}
		}
	}
}
