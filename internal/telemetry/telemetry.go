// Package telemetry provides the lock-cheap runtime metrics of the
// campaign pipeline: injection and shard counters, a log₂ latency
// histogram, retry/backoff tallies and worker-utilization accounting.
// internal/core and internal/runner increment these on their hot
// paths (a handful of atomic adds per bit position or shard — never
// per trial), cmd/positcampaign exposes them through expvar, an
// opt-in pprof HTTP endpoint, and a schema-versioned JSON snapshot,
// and cmd/positbench records them into the BENCH_*.json perf
// trajectory. All methods are safe for concurrent use and nil-safe on
// *Metrics, so instrumented code paths need no "is telemetry on"
// branches beyond carrying the pointer.
package telemetry

import (
	"expvar"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// histBuckets is the number of log₂ duration buckets: bucket i counts
// observations in [2^i, 2^(i+1)) microseconds, with bucket 0 also
// absorbing sub-microsecond samples and the last bucket absorbing
// everything from ~2.3 hours up.
const histBuckets = 33

// Histogram is a fixed-bucket log₂ latency histogram. Observation is
// one atomic add plus two relaxed min/max updates — no locks, no
// allocation — so it can sit on the shard completion path.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sumNS   atomic.Int64
	// minNS1 stores min+1 so the zero value means "no observation
	// yet" without a constructor (the histogram must be usable as an
	// embedded zero value).
	minNS1 atomic.Int64
	maxNS  atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.buckets[bucketOf(ns)].Add(1)
	h.count.Add(1)
	h.sumNS.Add(ns)
	for {
		cur := h.minNS1.Load()
		if cur != 0 && cur <= ns+1 {
			break
		}
		if h.minNS1.CompareAndSwap(cur, ns+1) {
			break
		}
	}
	for {
		cur := h.maxNS.Load()
		if cur >= ns {
			break
		}
		if h.maxNS.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// bucketOf maps nanoseconds to a log₂-of-microseconds bucket index.
func bucketOf(ns int64) int {
	us := ns / int64(time.Microsecond)
	if us <= 0 {
		return 0
	}
	b := bits.Len64(uint64(us)) - 1
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// HistogramSnapshot is the JSON-friendly view of a Histogram. Bounds
// are inclusive-lower microsecond edges of the non-empty buckets.
type HistogramSnapshot struct {
	// Count is the number of observations; every other field is zero
	// while Count is zero.
	Count int64 `json:"count"`
	// SumNS is the sum of all observed durations, nanoseconds.
	SumNS int64 `json:"sum_ns"`
	// MinNS is the smallest observation, nanoseconds.
	MinNS int64 `json:"min_ns"`
	// MaxNS is the largest observation, nanoseconds.
	MaxNS int64 `json:"max_ns"`
	// MeanNS is the integer quotient SumNS/Count, nanoseconds.
	MeanNS int64 `json:"mean_ns"`
	// Buckets lists only the non-empty log₂ bands, in ascending order.
	Buckets []HistogramBand `json:"buckets,omitempty"`
}

// HistogramBand is one non-empty histogram bucket.
type HistogramBand struct {
	LoUS  int64 `json:"lo_us"` // inclusive lower bound, microseconds
	Count int64 `json:"count"` // observations that landed in this band
}

// Quantile estimates the q-quantile (0 < q <= 1) of the recorded
// durations in nanoseconds from the log₂ bands: it returns the upper
// edge of the band holding the q-th observation, clamped to the
// observed [MinNS, MaxNS] range so the estimate never exceeds a real
// observation. A snapshot with no observations returns 0. The
// coarseness is the band width (a factor of 2), which is exactly the
// resolution positload's p95/p99 error budgets are asserted at.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	// rank is the 1-based index of the target observation.
	rank := int64(q * float64(s.Count))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for _, b := range s.Buckets {
		seen += b.Count
		if seen >= rank {
			// Upper edge of band [lo, 2*lo) µs; band 0 is [0, 2) µs.
			hi := int64(2) * int64(time.Microsecond)
			if b.LoUS > 0 {
				hi = 2 * b.LoUS * int64(time.Microsecond)
			}
			if hi > s.MaxNS {
				hi = s.MaxNS
			}
			if hi < s.MinNS {
				hi = s.MinNS
			}
			return hi
		}
	}
	return s.MaxNS
}

// Snapshot returns a consistent-enough view of the histogram: each
// field is read atomically; cross-field skew is bounded by in-flight
// observations and is irrelevant for monitoring.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		SumNS: h.sumNS.Load(),
		MaxNS: h.maxNS.Load(),
	}
	if min1 := h.minNS1.Load(); min1 > 0 {
		s.MinNS = min1 - 1
	}
	if s.Count > 0 {
		s.MeanNS = s.SumNS / s.Count
	}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		lo := int64(0)
		if i > 0 {
			lo = 1 << uint(i)
		}
		s.Buckets = append(s.Buckets, HistogramBand{LoUS: lo, Count: n})
	}
	return s
}

// Metrics is the campaign metric set. A nil *Metrics is a valid
// no-op receiver for every Add*/Observe* method, so instrumented
// packages thread the pointer unconditionally.
type Metrics struct {
	// Injections counts fault-injection trials executed (incremented
	// once per completed bit position with the trial batch size).
	Injections Counter
	// BitsDone counts completed bit positions.
	BitsDone Counter
	// ShardsDone counts shards computed and journaled this process.
	ShardsDone Counter
	// ShardsFailed counts shards that exhausted their retry budget.
	ShardsFailed Counter
	// ShardsResumed counts shards loaded from a prior run's journal.
	ShardsResumed Counter
	// Retries counts shard attempts beyond the first.
	Retries Counter
	// Backoffs counts backoff waits entered.
	Backoffs Counter
	// BackoffNS accumulates requested backoff duration, nanoseconds.
	BackoffNS Counter
	// WorkerBusyNS accumulates wall time workers spent executing
	// shards (utilization = busy / (workers × elapsed)).
	WorkerBusyNS Counter
	// ShardLatency is the per-shard wall-clock histogram.
	ShardLatency Histogram
	// DatasetsGenerated counts datasets synthesized for injection.
	DatasetsGenerated Counter
	// DatasetGenerateNS accumulates the time spent generating them,
	// nanoseconds.
	DatasetGenerateNS Counter

	workers atomic.Int64
	startNS atomic.Int64
}

// New returns a Metrics with the rate clock started.
func New() *Metrics {
	m := &Metrics{}
	m.startNS.Store(time.Now().UnixNano())
	return m
}

// SetWorkers records the size of the shard worker pool so Snapshot
// can derive utilization.
func (m *Metrics) SetWorkers(n int) {
	if m == nil {
		return
	}
	m.workers.Store(int64(n))
}

// AddInjections records n completed trials (nil-safe).
func (m *Metrics) AddInjections(n int) {
	if m == nil {
		return
	}
	m.Injections.Add(int64(n))
}

// AddBitDone records one completed bit position (nil-safe).
func (m *Metrics) AddBitDone() {
	if m == nil {
		return
	}
	m.BitsDone.Add(1)
}

// ObserveShard records one finished shard attempt chain: its terminal
// state, total wall time and attempt count (nil-safe).
func (m *Metrics) ObserveShard(state string, d time.Duration, attempts int) {
	if m == nil {
		return
	}
	switch state {
	case "done":
		m.ShardsDone.Add(1)
		m.ShardLatency.Observe(d)
	case "failed":
		m.ShardsFailed.Add(1)
	case "resumed":
		m.ShardsResumed.Add(1)
	}
	if attempts > 1 {
		m.Retries.Add(int64(attempts - 1))
	}
}

// ObserveBackoff records one backoff wait of duration d (nil-safe).
func (m *Metrics) ObserveBackoff(d time.Duration) {
	if m == nil {
		return
	}
	m.Backoffs.Add(1)
	m.BackoffNS.Add(int64(d))
}

// AddWorkerBusy accumulates worker busy wall time (nil-safe).
func (m *Metrics) AddWorkerBusy(d time.Duration) {
	if m == nil {
		return
	}
	m.WorkerBusyNS.Add(int64(d))
}

// ObserveDatasetGenerate records one dataset generation of duration
// d (nil-safe).
func (m *Metrics) ObserveDatasetGenerate(d time.Duration) {
	if m == nil {
		return
	}
	m.DatasetsGenerated.Add(1)
	m.DatasetGenerateNS.Add(int64(d))
}

// publishMu guards against double expvar registration (expvar panics
// on duplicate names).
var publishMu sync.Mutex

// Publish registers the metrics under name in the process-wide expvar
// registry (served at /debug/vars by any HTTP endpoint that imports
// expvar, e.g. positcampaign's -pprof listener). Publishing the same
// name twice replaces nothing and does not panic: the first
// registration wins and later calls are ignored, which keeps Publish
// safe to call from tests.
func Publish(name string, m *Metrics) {
	publishMu.Lock()
	defer publishMu.Unlock()
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() interface{} { return m.Snapshot() }))
}
