package telemetry

import (
	"bytes"
	"encoding/json"
	"expvar"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"
)

// TestCountersConcurrent exercises every counter and the histogram
// from 1, 2 and 8 workers — the same pool sizes the campaign tests
// use — and asserts exact totals. `make race` runs this under the
// race detector, which is the real check: the counters must be
// lock-cheap AND clean.
func TestCountersConcurrent(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			m := New()
			m.SetWorkers(workers)
			const perWorker = 1000
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						m.AddInjections(3)
						m.AddBitDone()
						m.ObserveShard("done", time.Duration(i+1)*time.Microsecond, 1)
						m.ObserveShard("failed", 0, 3)
						m.ObserveShard("resumed", 0, 1)
						m.ObserveBackoff(time.Millisecond)
						m.AddWorkerBusy(time.Microsecond)
						m.ObserveDatasetGenerate(2 * time.Microsecond)
					}
				}()
			}
			wg.Wait()
			n := int64(workers * perWorker)
			s := m.Snapshot()
			if s.Injections != 3*n {
				t.Errorf("Injections = %d, want %d", s.Injections, 3*n)
			}
			if s.BitsDone != n {
				t.Errorf("BitsDone = %d, want %d", s.BitsDone, n)
			}
			if s.ShardsDone != n || s.ShardsFailed != n || s.ShardsResumed != n {
				t.Errorf("shards done/failed/resumed = %d/%d/%d, want %d each",
					s.ShardsDone, s.ShardsFailed, s.ShardsResumed, n)
			}
			if s.Retries != 2*n {
				t.Errorf("Retries = %d, want %d", s.Retries, 2*n)
			}
			if s.Backoffs != n || s.BackoffNS != n*int64(time.Millisecond) {
				t.Errorf("Backoffs = %d (%d ns), want %d (%d ns)",
					s.Backoffs, s.BackoffNS, n, n*int64(time.Millisecond))
			}
			if s.WorkerBusyNS != n*int64(time.Microsecond) {
				t.Errorf("WorkerBusyNS = %d, want %d", s.WorkerBusyNS, n*int64(time.Microsecond))
			}
			if s.DatasetsGenerated != n || s.DatasetGenerateNS != 2*n*int64(time.Microsecond) {
				t.Errorf("DatasetsGenerated = %d (%d ns), want %d (%d ns)",
					s.DatasetsGenerated, s.DatasetGenerateNS, n, 2*n*int64(time.Microsecond))
			}
			h := s.ShardLatency
			if h.Count != n {
				t.Errorf("latency count = %d, want %d", h.Count, n)
			}
			if h.MinNS != int64(time.Microsecond) {
				t.Errorf("latency min = %d, want %d", h.MinNS, int64(time.Microsecond))
			}
			if h.MaxNS != int64(perWorker*time.Microsecond) {
				t.Errorf("latency max = %d, want %d", h.MaxNS, int64(perWorker*time.Microsecond))
			}
			var bucketTotal int64
			for _, b := range h.Buckets {
				bucketTotal += b.Count
			}
			if bucketTotal != n {
				t.Errorf("bucket total = %d, want %d", bucketTotal, n)
			}
		})
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{500 * time.Nanosecond, 0},
		{time.Microsecond, 0},
		{2 * time.Microsecond, 1},
		{3 * time.Microsecond, 1},
		{4 * time.Microsecond, 2},
		{time.Millisecond, 9},
		{time.Second, 19},
		{time.Hour, 31},
		{100 * time.Hour, 32},
	}
	for _, c := range cases {
		if got := bucketOf(int64(c.d)); got != c.want {
			t.Errorf("bucketOf(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	// Negative durations clamp to bucket 0 instead of panicking.
	var h Histogram
	h.Observe(-time.Second)
	if s := h.Snapshot(); s.Count != 1 || s.MinNS != 0 {
		t.Errorf("negative observation: count=%d min=%d, want 1, 0", s.Count, s.MinNS)
	}
}

func TestNilMetricsAreSafe(t *testing.T) {
	var m *Metrics
	m.AddInjections(1)
	m.AddBitDone()
	m.SetWorkers(4)
	m.ObserveShard("done", time.Second, 2)
	m.ObserveBackoff(time.Second)
	m.AddWorkerBusy(time.Second)
	m.ObserveDatasetGenerate(time.Second)
	s := m.Snapshot()
	if s.Schema != SnapshotSchema {
		t.Errorf("nil snapshot schema = %q, want %q", s.Schema, SnapshotSchema)
	}
	if s.Injections != 0 || s.ShardsDone != 0 {
		t.Error("nil metrics accumulated values")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	m := New()
	m.SetWorkers(2)
	m.AddInjections(42)
	m.ObserveShard("done", 5*time.Millisecond, 2)
	m.ObserveDatasetGenerate(3 * time.Millisecond)
	var buf bytes.Buffer
	if err := m.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"datasets_generated": 1`, `"dataset_generate_ns": 3000000`, `"peak_rss_bytes": `} {
		if !bytes.Contains(buf.Bytes(), []byte(key)) {
			t.Errorf("snapshot lacks %s:\n%s", key, buf.Bytes())
		}
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if s.Schema != SnapshotSchema {
		t.Errorf("schema = %q, want %q", s.Schema, SnapshotSchema)
	}
	if s.Injections != 42 || s.ShardsDone != 1 || s.Retries != 1 ||
		s.DatasetsGenerated != 1 || s.DatasetGenerateNS != int64(3*time.Millisecond) {
		t.Errorf("round-tripped snapshot lost values: %+v", s)
	}
	if s.ElapsedNS <= 0 {
		t.Error("elapsed not populated")
	}
	// Where the kernel reports VmHWM, the snapshot carries it.
	if _, err := os.Stat("/proc/self/status"); err == nil && s.PeakRSSBytes <= 0 {
		t.Errorf("peak_rss_bytes = %d with /proc/self/status present", s.PeakRSSBytes)
	}
}

func TestPublishIdempotent(t *testing.T) {
	m := New()
	Publish("telemetry_test_metrics", m)
	Publish("telemetry_test_metrics", m) // must not panic
	v := expvar.Get("telemetry_test_metrics")
	if v == nil {
		t.Fatal("metrics not published")
	}
	var s Snapshot
	if err := json.Unmarshal([]byte(v.String()), &s); err != nil {
		t.Fatalf("expvar value is not a Snapshot: %v", err)
	}
	if s.Schema != SnapshotSchema {
		t.Errorf("expvar schema = %q, want %q", s.Schema, SnapshotSchema)
	}
}

// TestHistogramQuantile: quantile estimates land on the upper edge of
// the band holding the target rank, clamped to observed min/max.
func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	// 90 fast observations in the [1ms, 2ms) band, 10 slow in [1s, 2s).
	for i := 0; i < 90; i++ {
		h.Observe(1500 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1500 * time.Millisecond)
	}
	s := h.Snapshot()
	// 1500µs lands in the [1024µs, 2048µs) band; the estimate is its
	// upper edge.
	if got := s.Quantile(0.5); got != int64(2048*time.Microsecond) {
		t.Errorf("p50 = %d ns, want 2048µs band edge", got)
	}
	// p95 falls in the slow band; the edge is clamped to MaxNS.
	if got := s.Quantile(0.95); got != s.MaxNS {
		t.Errorf("p95 = %d ns, want MaxNS %d", got, s.MaxNS)
	}
	if got := s.Quantile(1.0); got != s.MaxNS {
		t.Errorf("p100 = %d ns, want MaxNS %d", got, s.MaxNS)
	}
	if got := (HistogramSnapshot{}).Quantile(0.99); got != 0 {
		t.Errorf("empty quantile = %d, want 0", got)
	}
	// A single sub-microsecond observation clamps up to MinNS... and
	// down to MaxNS, both equal to the observation.
	var one Histogram
	one.Observe(400 * time.Nanosecond)
	if got := one.Snapshot().Quantile(0.99); got != 400 {
		t.Errorf("single-observation quantile = %d ns, want 400", got)
	}
}
