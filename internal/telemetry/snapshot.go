package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"positres/internal/artifact"
)

// SnapshotSchema versions the JSON layout written by WriteSnapshot
// and served through expvar. Bump it on any breaking field change so
// downstream trajectory tooling can dispatch on it.
const SnapshotSchema = "positres-telemetry/v1"

// Snapshot is the point-in-time JSON view of a Metrics set. Raw
// counters are exported verbatim; the derived rates (injections/sec,
// worker utilization) are computed at snapshot time from the metrics
// clock so every consumer sees the same arithmetic. docs/PERF.md is
// the field reference.
type Snapshot struct {
	// Schema is always SnapshotSchema ("positres-telemetry/v1"), even
	// from a nil Metrics.
	Schema string `json:"schema"`
	// ElapsedNS is nanoseconds since the metrics clock started (New or
	// the first SetWorkers).
	ElapsedNS int64 `json:"elapsed_ns"`

	// Injections counts fault-injection trials executed.
	Injections int64 `json:"injections"`
	// BitsDone counts completed bit positions.
	BitsDone int64 `json:"bits_done"`

	// ShardsDone counts shards computed and journaled this process.
	ShardsDone int64 `json:"shards_done"`
	// ShardsFailed counts shards that exhausted their retry budget.
	ShardsFailed int64 `json:"shards_failed"`
	// ShardsResumed counts shards loaded from a prior run's journal.
	ShardsResumed int64 `json:"shards_resumed"`
	// Retries counts shard attempts beyond the first.
	Retries int64 `json:"retries"`
	// Backoffs counts backoff waits entered.
	Backoffs int64 `json:"backoffs"`
	// BackoffNS is the accumulated requested backoff time, nanoseconds.
	BackoffNS int64 `json:"backoff_ns"`

	// Workers is the shard worker pool size (0 until SetWorkers).
	Workers int64 `json:"workers"`
	// WorkerBusyNS is the total wall time workers spent executing
	// shards, nanoseconds.
	WorkerBusyNS int64 `json:"worker_busy_ns"`
	// WorkerUtilization is the derived fraction
	// busy / (workers × elapsed), 0 when workers or elapsed is unknown.
	WorkerUtilization float64 `json:"worker_utilization"`

	// InjectionsPerSec is Injections divided by elapsed wall time.
	InjectionsPerSec float64 `json:"injections_per_sec"`

	// ShardLatency is the per-shard wall-clock histogram.
	ShardLatency HistogramSnapshot `json:"shard_latency"`

	// DatasetsGenerated counts datasets synthesized for injection.
	DatasetsGenerated int64 `json:"datasets_generated"`
	// DatasetGenerateNS is the total time spent generating them,
	// nanoseconds.
	DatasetGenerateNS int64 `json:"dataset_generate_ns"`

	// PeakRSSBytes is the process's peak resident set size in bytes
	// (VmHWM in /proc/self/status) when the snapshot was taken; 0
	// where the kernel does not report it.
	PeakRSSBytes int64 `json:"peak_rss_bytes"`
}

// Snapshot captures the current metric values. Nil-safe: a nil
// receiver yields a zero snapshot carrying only the schema tag.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{Schema: SnapshotSchema}
	if m == nil {
		return s
	}
	if start := m.startNS.Load(); start > 0 {
		s.ElapsedNS = time.Now().UnixNano() - start
	}
	s.Injections = m.Injections.Load()
	s.BitsDone = m.BitsDone.Load()
	s.ShardsDone = m.ShardsDone.Load()
	s.ShardsFailed = m.ShardsFailed.Load()
	s.ShardsResumed = m.ShardsResumed.Load()
	s.Retries = m.Retries.Load()
	s.Backoffs = m.Backoffs.Load()
	s.BackoffNS = m.BackoffNS.Load()
	s.Workers = m.workers.Load()
	s.WorkerBusyNS = m.WorkerBusyNS.Load()
	s.ShardLatency = m.ShardLatency.Snapshot()
	s.DatasetsGenerated = m.DatasetsGenerated.Load()
	s.DatasetGenerateNS = m.DatasetGenerateNS.Load()
	s.PeakRSSBytes = peakRSS()
	if s.ElapsedNS > 0 {
		s.InjectionsPerSec = float64(s.Injections) / (float64(s.ElapsedNS) / float64(time.Second))
		if s.Workers > 0 {
			s.WorkerUtilization = float64(s.WorkerBusyNS) / (float64(s.Workers) * float64(s.ElapsedNS))
		}
	}
	return s
}

// peakRSS returns the process's peak resident set size in bytes, read
// from VmHWM in /proc/self/status (Linux), or 0 where it is not there.
func peakRSS() int64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0
			}
			return kb << 10
		}
	}
	return 0
}

// WriteSnapshot encodes the current snapshot as indented JSON.
func (m *Metrics) WriteSnapshot(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m.Snapshot())
}

// ReadSnapshot parses a snapshot written by WriteSnapshot (or scraped
// from the expvar endpoint), verifying the schema tag so trajectory
// tooling never silently charts a document from a different layout
// generation.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("telemetry: decode snapshot: %w", err)
	}
	if err := artifact.CheckSchema(s.Schema, SnapshotSchema); err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	return &s, nil
}
