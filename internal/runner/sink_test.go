package runner

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"positres/internal/core"
	"positres/internal/store"
)

// TestSinkStreamsCampaign is the acceptance test for the store sink:
// a campaign streamed through a store.CampaignWriter must publish
// CSVs byte-identical to the engine's direct render, per-bit
// aggregates matching core.AggregateByBit over the direct trials, and
// Results that keep identity and N while carrying no trials. Workers
// append their own shards concurrently, so the store must come out
// the same at every worker count; under -race (`make race`) this is
// also the sink's data-race check.
func TestSinkStreamsCampaign(t *testing.T) {
	cs := testSpec()
	var want [][]core.Trial
	for _, sp := range SpecsOf(cs) {
		want = append(want, directTrials(t, cs, sp))
	}
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			testSinkStreams(t, want, workers)
		})
	}
}

// testSinkStreams runs the sink campaign at one worker count and
// checks every store against the direct trials.
func testSinkStreams(t *testing.T, want [][]core.Trial, workers int) {
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
		if res.Field != sp.Field || res.Codec != sp.Codec || res.N != sp.N {
			t.Fatalf("%s: result identity %+v", sp.Key(), res)
		}
		var elapsed time.Duration
		for _, st := range rep.Shards {
			if st.Spec == sp {
				elapsed += st.Duration()
			}
		}
		if res.Elapsed != elapsed {
			t.Fatalf("%s: Elapsed %v, want the shards' sum %v", sp.Key(), res.Elapsed, elapsed)
		}
		got := storeCSV(t, cw, dir, sp.Field, sp.Codec)
		if w := csvOf(t, want[i]); !bytes.Equal(got, w) {
			t.Fatalf("%s: store CSV differs from the direct CSV (%d vs %d bytes)",
				sp.Key(), len(got), len(w))
		}
		r, err := store.Open(filepath.Join(dir, store.FileName(sp.Field, sp.Codec)))
		if err != nil {
			t.Fatal(err)
		}
		aggs := r.BitAggs()
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		// %v prints each float in its shortest round-tripping form,
		// so equal text is equal bits (NaN-safe, unlike ==).
		if g, w := fmt.Sprint(aggs), fmt.Sprint(core.AggregateByBit(want[i])); g != w {
			t.Fatalf("%s: store aggregates differ from the direct trials':\n got %s\nwant %s", sp.Key(), g, w)
		}
	}
}

// slabSink records, for every shard it is handed, the address of the
// shard's first trial (which slab the runner computed it into) and the
// shard's CSV rendered at append time, before the runner can refill
// the slab. The runner calls it from concurrent shard workers.
type slabSink struct {
	mu    sync.Mutex
	slabs map[*core.Trial]bool
	csvs  map[string][]byte // by Spec.Key() and bitLo
}

func (s *slabSink) AppendShard(field, codec string, bitLo, bitHi int, trials []core.Trial) error {
	var buf bytes.Buffer
	if err := core.WriteTrialsCSV(&buf, trials); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.slabs[&trials[0]] = true
	s.csvs[fmt.Sprintf("%s %s %d", field, codec, bitLo)] = buf.Bytes()
	return nil
}

// TestWorkersReuseSlabs pins slab ownership: each shard worker
// computes every shard into one slab of its own, so a campaign sees at
// most Workers distinct slabs, and each shard's trials, read while
// AppendShard runs, equal the same bits of the engine's direct run.
// The test campaign mixes posit16 and ieee32 shards of one size, so a
// slab refilled with another format must not leak any field of the
// last shard it held.
func TestWorkersReuseSlabs(t *testing.T) {
	cs := testSpec()
	want := map[Spec][]core.Trial{}
	for _, sp := range SpecsOf(cs) {
		want[sp] = directTrials(t, cs, sp)
	}
	tpb := cs.TrialsPerBit
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			sink := &slabSink{slabs: map[*core.Trial]bool{}, csvs: map[string][]byte{}}
			cfg := testCfg("")
			cfg.Workers = workers
			cfg.Sink = sink
			rep, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Complete() || len(sink.csvs) != testShardTotal {
				t.Fatalf("sink saw %d of %d shards: %+v", len(sink.csvs), testShardTotal, rep)
			}
			if len(sink.slabs) > workers {
				t.Fatalf("%d shards used %d distinct slabs, want at most %d (one per worker)",
					testShardTotal, len(sink.slabs), workers)
			}
			for _, st := range rep.Shards {
				w := csvOf(t, want[st.Spec][st.BitLo*tpb:st.BitHi*tpb])
				if got := sink.csvs[fmt.Sprintf("%s %s %d", st.Field, st.Codec, st.BitLo)]; !bytes.Equal(got, w) {
					t.Fatalf("shard %s: trials at append time differ from the direct run", st.ID())
				}
			}
		})
	}
}

// TestSinkFedOnResume pins that journal-resumed shards flow through
// the sink too: run durably into a sink that drops every shard, then
// resume into a store — every shard arrives via the journal and the
// store must still equal the direct CSV.
func TestSinkFedOnResume(t *testing.T) {
	stateDir := t.TempDir()
	first, err := Run(context.Background(), testCfg(stateDir))
	if err != nil {
		t.Fatal(err)
	}
	if !first.Complete() {
		t.Fatalf("seed run incomplete: %+v", first)
	}

	cfg := testCfg(stateDir)
	cfg.Resume = true
	rep, got := storeRun(t, cfg)
	if rep.Resumed != testShardTotal || rep.Completed != 0 {
		t.Fatalf("resumed %d completed %d, want all %d resumed", rep.Resumed, rep.Completed, testShardTotal)
	}
	want := directCSVs(t, testSpec())
	for i, sp := range rep.Specs {
		if rep.Results[i] == nil {
			t.Fatalf("%s: no result after resume", sp.Key())
		}
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: resumed store CSV differs from the direct CSV", sp.Key())
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
