package telemetry

// Cluster-layer metrics for positserve's coordinator: per-worker shard
// dispatch tallies and heartbeat latency histograms, plus the global
// reassignment count. Workers are registered lazily on first
// observation, mirroring HTTPMetrics, so the dispatcher does not need
// to pre-declare its worker set (workers can self-register at any
// time).

import (
	"sync"
	"time"
)

// WorkerMetrics is the metric set of one campaign worker, keyed by its
// base URL. All fields are safe for concurrent use; instances are
// always handled by pointer and must not be copied after first use.
type WorkerMetrics struct {
	// ShardsAssigned counts shard dispatches to this worker, including
	// ones that later failed.
	ShardsAssigned Counter
	// ShardsCompleted counts dispatches that returned verified trials.
	ShardsCompleted Counter
	// ShardsFailed counts dispatches that errored (connection refused,
	// non-200, malformed CSV) — each one sends the shard back through
	// the runner's retry loop for reassignment.
	ShardsFailed Counter
	// HeartbeatFailures counts failed health probes.
	HeartbeatFailures Counter
	// Heartbeat is the round-trip latency of successful health probes,
	// in the shared log₂ histogram (bucket bounds in microseconds).
	Heartbeat Histogram
}

// ClusterMetrics tracks coordinator-side distribution metrics. The
// zero value is not usable; construct with NewCluster. A nil
// *ClusterMetrics is a valid no-op receiver for every method,
// mirroring the nil-safety of *Metrics. All methods are safe for
// concurrent use.
type ClusterMetrics struct {
	// Reassignments counts shards re-dispatched to a different worker
	// after a failure — the headline "how often did the cluster heal"
	// number.
	Reassignments Counter

	// WireFrames counts shard responses merged — each one store block
	// (docs/STORE.md).
	WireFrames Counter
	// WireBytes totals the body bytes of those responses — with
	// WireFrames, the wire-efficiency numerator on /metrics.
	WireBytes Counter

	mu      sync.RWMutex
	workers map[string]*WorkerMetrics
}

// NewCluster returns an empty ClusterMetrics ready for concurrent use.
func NewCluster() *ClusterMetrics {
	return &ClusterMetrics{workers: map[string]*WorkerMetrics{}}
}

// Worker returns the metric set registered under url, creating it on
// first use. Nil-safe: a nil receiver returns nil, and every
// WorkerMetrics method on a nil pointer would panic — callers always
// guard with the ClusterMetrics-level nil checks below instead.
func (c *ClusterMetrics) Worker(url string) *WorkerMetrics {
	if c == nil {
		return nil
	}
	c.mu.RLock()
	w := c.workers[url]
	c.mu.RUnlock()
	if w != nil {
		return w
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if w = c.workers[url]; w == nil {
		w = &WorkerMetrics{}
		c.workers[url] = w
	}
	return w
}

// ObserveDispatch records one shard dispatch to url and its outcome
// (nil-safe).
func (c *ClusterMetrics) ObserveDispatch(url string, ok bool) {
	if c == nil {
		return
	}
	w := c.Worker(url)
	w.ShardsAssigned.Add(1)
	if ok {
		w.ShardsCompleted.Add(1)
	} else {
		w.ShardsFailed.Add(1)
	}
}

// ObserveHeartbeat records one health probe of url: its success and,
// when successful, its round-trip time (nil-safe).
func (c *ClusterMetrics) ObserveHeartbeat(url string, ok bool, d time.Duration) {
	if c == nil {
		return
	}
	w := c.Worker(url)
	if ok {
		w.Heartbeat.Observe(d)
	} else {
		w.HeartbeatFailures.Add(1)
	}
}

// AddReassignment records one shard re-dispatched to a different
// worker after a failure (nil-safe).
func (c *ClusterMetrics) AddReassignment() {
	if c == nil {
		return
	}
	c.Reassignments.Add(1)
}

// ObserveWire records one successful shard response of the given
// body size (nil-safe). Failed dispatches are not observed — the wire
// counters describe data that actually reached the merge path.
func (c *ClusterMetrics) ObserveWire(bodyBytes int64) {
	if c == nil {
		return
	}
	c.WireFrames.Add(1)
	c.WireBytes.Add(bodyBytes)
}

// WorkerSnapshot is the JSON view of one worker's metrics.
type WorkerSnapshot struct {
	// ShardsAssigned counts shard dispatches, including failed ones.
	ShardsAssigned int64 `json:"shards_assigned"`
	// ShardsCompleted counts dispatches that returned verified trials.
	ShardsCompleted int64 `json:"shards_completed"`
	// ShardsFailed counts dispatches that errored.
	ShardsFailed int64 `json:"shards_failed"`
	// HeartbeatFailures counts failed health probes.
	HeartbeatFailures int64 `json:"heartbeat_failures"`
	// Heartbeat is the successful-probe round-trip histogram.
	Heartbeat HistogramSnapshot `json:"heartbeat"`
}

// ClusterSnapshot is the JSON view of a ClusterMetrics set.
type ClusterSnapshot struct {
	// Reassignments counts shards re-dispatched after worker failures.
	Reassignments int64 `json:"reassignments"`
	// WireFrames counts shard responses merged.
	WireFrames int64 `json:"wire_frames"`
	// WireBytes totals the body bytes of those shard responses.
	WireBytes int64 `json:"wire_bytes"`
	// WireFallbacks is always 0: shard responses have one encoding, so
	// there is nothing to fall back to. The field stays so existing
	// dashboards and scripts reading wire_csv_fallbacks keep parsing.
	WireFallbacks int64 `json:"wire_csv_fallbacks"`
	// Workers is keyed by worker base URL; it is empty but non-nil
	// when nothing has been observed.
	Workers map[string]WorkerSnapshot `json:"workers"`
}

// Snapshot captures the current per-worker values. Nil-safe: a nil
// receiver yields an empty (non-nil) worker map. Cross-field skew is
// bounded by in-flight dispatches, as with the other snapshot types.
func (c *ClusterMetrics) Snapshot() ClusterSnapshot {
	s := ClusterSnapshot{Workers: map[string]WorkerSnapshot{}}
	if c == nil {
		return s
	}
	s.Reassignments = c.Reassignments.Load()
	s.WireFrames = c.WireFrames.Load()
	s.WireBytes = c.WireBytes.Load()
	c.mu.RLock()
	defer c.mu.RUnlock()
	for url, w := range c.workers {
		s.Workers[url] = WorkerSnapshot{
			ShardsAssigned:    w.ShardsAssigned.Load(),
			ShardsCompleted:   w.ShardsCompleted.Load(),
			ShardsFailed:      w.ShardsFailed.Load(),
			HeartbeatFailures: w.HeartbeatFailures.Load(),
			Heartbeat:         w.Heartbeat.Snapshot(),
		}
	}
	return s
}
