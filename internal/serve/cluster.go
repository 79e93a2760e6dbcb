package serve

// The coordinator's shard dispatcher. When a positserve instance has
// workers (static -workers flags or live POST /v1/workers
// registrations), every campaign's shards are fanned out over HTTP
// instead of computed locally: the dispatcher plugs into
// runner.Config.Execute, so the runner's existing watchdog, bounded
// retry and exponential backoff drive reassignment — a dead or slow
// worker is indistinguishable from a transient local fault, and the
// shard simply lands on another worker on the next attempt. Because
// workers return byte-exact trials as store blocks (docs/STORE.md) and
// the coordinator journals them through the same CRC-guarded records
// a local run uses, the final campaign CSVs are byte-identical to a
// single-node run (TestDistributedEquivalence pins this).

import (
	"context"
	"fmt"
	"sync"
	"time"

	"positres/internal/core"
	"positres/internal/runner"
	"positres/internal/spec"
	"positres/internal/telemetry"
)

// workerState is the dispatcher's view of one worker. All fields are
// guarded by dispatcher.mu.
type workerState struct {
	url          string
	client       *Client
	busy         int       // in-flight shard dispatches
	fails        int       // consecutive dispatch/heartbeat failures
	backoffUntil time.Time // cooling off after a failure
	down         bool      // 3+ consecutive heartbeat failures
}

// eligible reports whether the worker should receive new shards now.
func (w *workerState) eligible(now time.Time) bool {
	return !w.down && !now.Before(w.backoffUntil)
}

// heartbeatDownThreshold is how many consecutive failed health probes
// mark a worker down (it re-enters rotation on the first success).
const heartbeatDownThreshold = 3

// dispatcher fans campaign shards out to registered workers and keeps
// their health state. All methods are safe for concurrent use.
type dispatcher struct {
	metrics   *telemetry.ClusterMetrics
	heartbeat time.Duration // health-probe period
	retryBase time.Duration // per-worker cooldown base after a failure

	mu      sync.Mutex
	workers map[string]*workerState
	// prevHolder remembers which worker last failed a shard, so the
	// next attempt prefers a different one and the hand-off is counted
	// as a reassignment.
	prevHolder map[string]string
}

// newDispatcher builds a dispatcher over the static worker list;
// more workers can join later via add (POST /v1/workers).
func newDispatcher(workerURLs []string, heartbeat, retryBase time.Duration, metrics *telemetry.ClusterMetrics) *dispatcher {
	if heartbeat <= 0 {
		heartbeat = 5 * time.Second
	}
	if retryBase <= 0 {
		retryBase = 500 * time.Millisecond
	}
	d := &dispatcher{
		metrics:    metrics,
		heartbeat:  heartbeat,
		retryBase:  retryBase,
		workers:    map[string]*workerState{},
		prevHolder: map[string]string{},
	}
	for _, u := range workerURLs {
		d.add(u)
	}
	return d
}

// add registers a worker, idempotently. A re-registered worker keeps
// its state (a restart announces itself again; the next heartbeat or
// dispatch refreshes health).
func (d *dispatcher) add(url string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.workers[url]; ok {
		return
	}
	d.workers[url] = &workerState{url: url, client: NewClient(url, nil)}
	d.metrics.Worker(url) // appear on /metrics immediately, all-zero
}

// size returns the number of registered workers.
func (d *dispatcher) size() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.workers)
}

// list snapshots the fleet for GET /v1/workers, sorted by URL via the
// metrics registry (same key set).
func (d *dispatcher) list() workerList {
	d.mu.Lock()
	defer d.mu.Unlock()
	l := workerList{Workers: []workerInfo{}}
	now := time.Now()
	for _, w := range sortedWorkers(d.workers) {
		l.Workers = append(l.Workers, workerInfo{
			URL:     w.url,
			Healthy: w.eligible(now),
			Busy:    w.busy,
			Fails:   w.fails,
		})
	}
	return l
}

// sortedWorkers returns the workers in stable URL order.
func sortedWorkers(m map[string]*workerState) []*workerState {
	out := make([]*workerState, 0, len(m))
	for _, w := range m {
		out = append(out, w)
	}
	for i := 1; i < len(out); i++ { // insertion sort: fleets are small
		for j := i; j > 0 && out[j].url < out[j-1].url; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// executeFor returns the runner Execute hook for one campaign, or nil
// when no workers are registered (the campaign then computes
// locally). The hook dispatches a single shard and returns its
// trials; any failure is surfaced to the runner, whose retry loop
// backs off and calls the hook again — at which point pick prefers a
// different worker, completing the reassignment.
func (d *dispatcher) executeFor(cs *spec.CampaignSpec) func(context.Context, runner.Shard) ([]core.Trial, error) {
	if d == nil || d.size() == 0 {
		return nil
	}
	return func(ctx context.Context, sh runner.Shard) ([]core.Trial, error) {
		return d.dispatch(ctx, cs, sh)
	}
}

// dispatch sends one shard to the best available worker.
func (d *dispatcher) dispatch(ctx context.Context, cs *spec.CampaignSpec, sh runner.Shard) ([]core.Trial, error) {
	w, reassigned, err := d.pick(sh.ID())
	if err != nil {
		return nil, err
	}
	if reassigned {
		d.metrics.AddReassignment()
	}

	// Single-pair spec: the shard's (field, codec) with the campaign's
	// parameters. Workers validate it with the same spec.Validate the
	// coordinator ran, so the two sides cannot disagree about defaults.
	single := *cs
	single.Fields = []string{sh.Field}
	single.Formats = []string{sh.Codec}
	trials, wireStats, err := w.client.RunShardStats(ctx, ShardRequest{Spec: single, BitLo: sh.BitLo, BitHi: sh.BitHi})

	d.mu.Lock()
	w.busy--
	if err != nil {
		w.fails++
		// Jittered so workers failed by one event (a dead peer, a chaos
		// burst) do not all re-enter rotation on the same tick.
		w.backoffUntil = time.Now().Add(runner.JitteredBackoff(d.retryBase, w.fails, w.url))
		d.prevHolder[sh.ID()] = w.url
	} else {
		w.fails = 0
		w.backoffUntil = time.Time{}
		delete(d.prevHolder, sh.ID())
	}
	d.mu.Unlock()
	d.metrics.ObserveDispatch(w.url, err == nil)
	if err != nil {
		return nil, fmt.Errorf("worker %s: shard %s: %w", w.url, sh.ID(), err)
	}
	d.metrics.ObserveWire(wireStats.BodyBytes)
	return trials, nil
}

// pick selects the least-busy eligible worker, preferring one that is
// not the shard's previous (failed) holder; reassigned reports that
// the shard moved to a different worker than the one that failed it.
// With every worker ineligible it falls back to the least-busy worker
// overall — letting the dispatch fail fast is better than deadlocking
// the campaign, and the runner's backoff paces the attempts.
func (d *dispatcher) pick(shardID string) (*workerState, bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.workers) == 0 {
		return nil, false, fmt.Errorf("no workers registered")
	}
	now := time.Now()
	prev := d.prevHolder[shardID]
	var best *workerState
	better := func(w *workerState) bool {
		if best == nil {
			return true
		}
		// Prefer not re-trying the worker that just failed this shard.
		if (w.url != prev) != (best.url != prev) {
			return w.url != prev
		}
		if w.busy != best.busy {
			return w.busy < best.busy
		}
		return w.url < best.url // deterministic tie-break
	}
	for _, w := range sortedWorkers(d.workers) {
		if w.eligible(now) && better(w) {
			best = w
		}
	}
	if best == nil {
		for _, w := range sortedWorkers(d.workers) {
			if better(w) {
				best = w
			}
		}
	}
	best.busy++
	return best, prev != "" && best.url != prev, nil
}

// start launches the heartbeat loop; it stops when ctx is cancelled.
// Each tick probes every worker's /healthz, feeding the per-worker
// latency histogram, and flips workers down after
// heartbeatDownThreshold consecutive failures (and back up on the
// first success).
func (d *dispatcher) start(ctx context.Context) {
	go func() {
		t := time.NewTicker(d.heartbeat)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				d.probeAll(ctx)
			}
		}
	}()
}

// probeAll health-checks every registered worker once.
func (d *dispatcher) probeAll(ctx context.Context) {
	d.mu.Lock()
	workers := sortedWorkers(d.workers)
	d.mu.Unlock()
	for _, w := range workers {
		pctx, cancel := context.WithTimeout(ctx, d.heartbeat)
		start := time.Now()
		_, err := w.client.Health(pctx)
		rtt := time.Since(start)
		cancel()
		d.metrics.ObserveHeartbeat(w.url, err == nil, rtt)
		d.mu.Lock()
		if err != nil {
			w.fails++
			if w.fails >= heartbeatDownThreshold {
				w.down = true
			}
		} else {
			w.fails = 0
			w.down = false
			w.backoffUntil = time.Time{}
		}
		d.mu.Unlock()
	}
}
