package serve

// The campaign job store: a bounded submission queue drained by a
// fixed worker pool, with every job's truth persisted under
// DataDir/jobs/<id>/ — job.json (the normalized request) next to the
// runner state directory (manifest + shard journal). Because the
// runner journals every completed shard, a server crash or SIGTERM
// loses at most in-flight shard attempts: on restart, recover() scans
// the jobs directory and re-enqueues every unfinished job with
// Resume, and the resumed results are byte-identical to an
// uninterrupted run (scripts/serve_e2e.sh pins this end to end).

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"positres/internal/atomicio"
	"positres/internal/core"
	"positres/internal/runner"
	"positres/internal/spec"
	"positres/internal/store"
	"positres/internal/telemetry"
)

// Job states served by GET /v1/campaigns/{id}. The terminal states
// "complete", "partial" and "cancelled" deliberately reuse the
// runner's manifest vocabulary (runner.StateComplete etc.); "queued",
// "running" and "failed" are service-level.
const (
	jobQueued    = "queued"
	jobRunning   = "running"
	jobComplete  = runner.StateComplete
	jobPartial   = runner.StatePartial
	jobCancelled = runner.StateCancelled
	jobFailed    = "failed"
)

// The body of POST /v1/campaigns is the canonical spec.CampaignSpec —
// the same type cmd/positcampaign builds from flags and runner.Config
// consumes directly. spec.Validate applies the documented defaults in
// place, and the normalized spec is echoed back (and persisted), so a
// job's identity is always explicit on disk.

// ShardCounts is the live shard tally of a job, as served in
// CampaignStatus.
type ShardCounts struct {
	// Done counts shards computed and journaled this run.
	Done int `json:"done"`
	// Resumed counts shards loaded from a prior run's journal.
	Resumed int `json:"resumed"`
	// Failed counts shards that exhausted their retry budget.
	Failed int `json:"failed"`
	// Skipped counts shards that never ran (campaign cancelled first).
	Skipped int `json:"skipped"`
	// Total is the expected shard count of the whole campaign.
	Total int `json:"total"`
}

// ResultRef points a client at one (field, format) result CSV.
type ResultRef struct {
	// Field is the sdrbench field key, e.g. "CESM/CLOUD".
	Field string `json:"field"`
	// Format is the canonical numfmt codec name, e.g. "posit16".
	Format string `json:"format"`
	// URL is the results endpoint path serving this CSV.
	URL string `json:"url"`
}

// job is one submitted campaign. All mutable fields are guarded by
// mu; done is closed exactly once when the job reaches a terminal
// state in this process.
type job struct {
	id        string
	req       spec.CampaignSpec
	dir       string // DataDir/jobs/<id>
	createdAt time.Time
	resume    bool // a prior run's state exists on disk

	mu         sync.Mutex
	state      string
	errMsg     string
	startedAt  time.Time
	finishedAt time.Time
	counts     ShardCounts
	results    []ResultRef
	cancel     context.CancelFunc // non-nil only while running
	// cw is the live trial store the campaign streams into; non-nil
	// only while running. /metrics reads its O(specs×bits) aggregate
	// snapshot for the mid-campaign dashboard section.
	cw   *store.CampaignWriter
	done chan struct{}
}

// stateDir is the runner state directory of the job.
func (j *job) stateDir() string { return filepath.Join(j.dir, "state") }

// cancelRun requests cancellation: a queued job is marked cancelled
// and skipped when dequeued; a running job has its context cancelled
// and drains through the runner (completed shards stay journaled).
func (j *job) cancelRun() {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case jobQueued:
		j.state = jobCancelled
		j.finishedAt = time.Now()
		close(j.done)
	case jobRunning:
		if j.cancel != nil {
			j.cancel()
		}
	}
}

// persistedJob is the schema of job.json — everything needed to
// reconstruct the job after a restart. The "request" key predates the
// CampaignSpec unification; it is kept so job.json files written by
// older servers keep decoding.
type persistedJob struct {
	// ID is the job id, matching the directory name.
	ID string `json:"id"`
	// CreatedAt is the submission time, RFC 3339 UTC.
	CreatedAt string `json:"created_at"`
	// Request is the validated campaign spec the job runs.
	Request spec.CampaignSpec `json:"request"`
}

// jobStore owns every job: the on-disk layout, the bounded queue, and
// the worker pool. All exported-equivalent entry points (submit, get,
// tallies) are safe for concurrent use.
type jobStore struct {
	dir             string // DataDir/jobs
	queueDepth      int
	campaignWorkers int
	metrics         *telemetry.Metrics
	crashAfter      int // test hook: exit(137) after N shards (0 = off)

	// executeFor, when non-nil, supplies the remote shard executor for
	// a campaign (the coordinator's dispatcher). Returning nil keeps
	// that campaign local. Set once before start; nil means every
	// campaign computes locally.
	executeFor func(cs *spec.CampaignSpec) func(context.Context, runner.Shard) ([]core.Trial, error)

	shardsDone atomic.Int64
	rejected   atomic.Int64 // submissions bounced with queue_full (429)

	mu     sync.Mutex
	jobs   map[string]*job
	queued int       // jobs submitted but not yet dequeued (backpressure)
	queue  chan *job // buffered: queueDepth + recovered jobs
	ctx    context.Context
	wg     sync.WaitGroup
}

// backpressure is the queue's live pressure view, served under
// "backpressure" in GET /metrics so operators (and positload's error
// budget) can see why 429s carry the Retry-After they do.
type backpressure struct {
	// Queued is the number of submitted-but-not-started campaigns.
	Queued int `json:"queued"`
	// QueueDepth is the configured queue capacity.
	QueueDepth int `json:"queue_depth"`
	// Rejected counts submissions bounced with queue_full since start.
	Rejected int64 `json:"rejected"`
	// RetryAfterSeconds is the Retry-After value the next 429 would
	// carry, derived from current occupancy.
	RetryAfterSeconds int `json:"retry_after_seconds"`
}

// retryAfterSeconds derives the Retry-After hint for a queue_full
// rejection from current occupancy (deriveRetryAfter): an
// almost-draining queue asks for 1s and a full one for 15s. Derived,
// not hard-coded, so a deep queue under light churn does not park
// clients for a flat worst-case wait.
func (s *jobStore) retryAfterSeconds() int {
	s.mu.Lock()
	queued, depth := s.queued, s.queueDepth
	s.mu.Unlock()
	return deriveRetryAfter(queued, depth)
}

// deriveRetryAfter maps queue occupancy to whole seconds in [1, 30]:
// 15 × queued/depth, rounded to the nearest second (ties down). A full
// queue of any depth gives 15s; only a backlog of twice the depth (jobs
// recovered on restart can exceed it) reaches the 30s cap.
func deriveRetryAfter(queued, depth int) int {
	if depth <= 0 || queued <= 0 {
		return 1
	}
	secs := (queued*30 + depth - 1) / (2 * depth)
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// pressure snapshots the backpressure view for /metrics.
func (s *jobStore) pressure() backpressure {
	s.mu.Lock()
	queued, depth := s.queued, s.queueDepth
	s.mu.Unlock()
	return backpressure{
		Queued:            queued,
		QueueDepth:        depth,
		Rejected:          s.rejected.Load(),
		RetryAfterSeconds: deriveRetryAfter(queued, depth),
	}
}

// newJobStore creates the store, creating dir and recovering any jobs
// a previous process left behind. Recovered unfinished jobs are
// already enqueued when newJobStore returns; workers start on start().
func newJobStore(dir string, queueDepth, campaignWorkers int, metrics *telemetry.Metrics, crashAfter int) (*jobStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: jobs dir: %w", err)
	}
	s := &jobStore{
		dir:             dir,
		queueDepth:      queueDepth,
		campaignWorkers: campaignWorkers,
		metrics:         metrics,
		crashAfter:      crashAfter,
		jobs:            map[string]*job{},
	}
	recovered, err := s.recover()
	if err != nil {
		return nil, err
	}
	s.queue = make(chan *job, queueDepth+len(recovered))
	for _, j := range recovered {
		s.queued++
		s.queue <- j
	}
	return s, nil
}

// start launches workers workers that execute queued jobs until ctx
// is cancelled. Jobs running at cancellation drain through the
// runner: completed shards are journaled, the manifest records
// "cancelled", and the job resumes on the next process start.
func (s *jobStore) start(ctx context.Context, workers int) {
	s.mu.Lock()
	s.ctx = ctx
	s.mu.Unlock()
	for w := 0; w < workers; w++ {
		s.wg.Add(1)
		go s.worker(ctx)
	}
}

// wait blocks until every worker has drained.
func (s *jobStore) wait() { s.wg.Wait() }

// draining reports whether the store has begun shutting down.
func (s *jobStore) draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctx != nil && s.ctx.Err() != nil
}

// submit validates, persists and enqueues a new campaign. A full
// queue returns a queue_full error for the handler to map to 429.
func (s *jobStore) submit(req spec.CampaignSpec) (*job, *spec.Error) {
	if verr := (&req).Validate(); verr != nil {
		return nil, verr
	}

	id, err := newJobID()
	if err != nil {
		return nil, &spec.Error{Code: codeInternal, Message: err.Error()}
	}
	j := &job{
		id:        id,
		req:       req,
		dir:       filepath.Join(s.dir, id),
		createdAt: time.Now(),
		state:     jobQueued,
		counts:    ShardCounts{Total: req.TotalShards()},
		done:      make(chan struct{}),
	}

	s.mu.Lock()
	if s.ctx != nil && s.ctx.Err() != nil {
		s.mu.Unlock()
		return nil, &spec.Error{Code: codeDraining, Message: "server is shutting down"}
	}
	if s.queued >= s.queueDepth {
		s.mu.Unlock()
		s.rejected.Add(1)
		return nil, &spec.Error{Code: codeQueueFull, Message: fmt.Sprintf("campaign queue is full (%d pending)", s.queueDepth)}
	}
	s.queued++
	s.jobs[id] = j
	s.mu.Unlock()

	if err := s.persist(j); err != nil {
		s.mu.Lock()
		s.queued--
		delete(s.jobs, id)
		s.mu.Unlock()
		return nil, &spec.Error{Code: codeInternal, Message: err.Error()}
	}
	s.queue <- j // capacity >= queueDepth, never blocks after the gate above
	return j, nil
}

// persist writes the job directory and job.json atomically.
func (s *jobStore) persist(j *job) error {
	if err := os.MkdirAll(j.dir, 0o755); err != nil {
		return fmt.Errorf("serve: job dir: %w", err)
	}
	raw, err := json.MarshalIndent(persistedJob{
		ID:        j.id,
		CreatedAt: j.createdAt.UTC().Format(time.RFC3339),
		Request:   j.req,
	}, "", "  ")
	if err != nil {
		return fmt.Errorf("serve: job encode: %w", err)
	}
	if err := atomicio.WriteFileBytes(filepath.Join(j.dir, "job.json"), append(raw, '\n')); err != nil {
		return fmt.Errorf("serve: job persist: %w", err)
	}
	return nil
}

// get returns the job by id.
func (s *jobStore) get(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// tallies counts jobs by state for /metrics.
func (s *jobStore) tallies() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := map[string]int{}
	for _, j := range s.jobs {
		j.mu.Lock()
		t[j.state]++
		j.mu.Unlock()
	}
	return t
}

// worker executes queued jobs until ctx is cancelled.
func (s *jobStore) worker(ctx context.Context) {
	defer s.wg.Done()
	for {
		select {
		case <-ctx.Done():
			return
		case j := <-s.queue:
			s.mu.Lock()
			s.queued--
			s.mu.Unlock()
			s.runJob(ctx, j)
		}
	}
}

// runJob executes one job through the durable runner and publishes
// its result CSVs. The job context is derived from the worker
// context, so server drain cancels it; a wait-mode request watcher
// can cancel it independently through job.cancelRun.
func (s *jobStore) runJob(ctx context.Context, j *job) {
	jctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Trials stream shard by shard into a columnar store in the job
	// directory instead of accumulating in memory; the store also
	// maintains the per-bit aggregates /metrics serves live.
	cw := store.NewCampaignWriter(j.dir)

	j.mu.Lock()
	if j.state != jobQueued { // cancelled while waiting in the queue
		j.mu.Unlock()
		return
	}
	j.state = jobRunning
	j.startedAt = time.Now()
	j.cancel = cancel
	j.cw = cw
	j.mu.Unlock()

	rcfg := runner.Config{
		Spec:        &j.req,
		Dir:         j.stateDir(),
		Resume:      j.resume,
		Workers:     s.campaignWorkers,
		Metrics:     s.metrics,
		Sink:        cw,
		OnShardDone: func(st runner.ShardStatus) { s.observeShard(j, st) },
	}
	if s.executeFor != nil {
		// Coordinator mode: dispatch shards to remote workers. A nil
		// executor (no workers registered) keeps the campaign local.
		rcfg.Execute = s.executeFor(&j.req)
	}
	rep, err := runner.Run(jctx, rcfg)
	if err != nil {
		cw.Abort()
		s.finishJob(j, jobFailed, err.Error(), nil)
		return
	}

	j.mu.Lock()
	j.counts = ShardCounts{
		Done:    rep.Completed,
		Resumed: rep.Resumed,
		Failed:  rep.Failed,
		Skipped: rep.Skipped,
		Total:   len(rep.Shards),
	}
	j.mu.Unlock()

	if rep.Cancelled {
		// The journal holds the completed shards; the next run rebuilds
		// the store from it, so the half-written one is just discarded.
		cw.Abort()
		s.finishJob(j, jobCancelled, "", nil)
		return
	}
	results, err := publishResults(j.id, rep, cw)
	// Discard stores of specs that did not publish (failed shards in a
	// partial campaign); Seal already committed the published ones.
	cw.Abort()
	if err != nil {
		s.finishJob(j, jobFailed, err.Error(), nil)
		return
	}
	s.finishJob(j, rep.Outcome(), "", results)
}

// observeShard updates the live tally and drives the e2e crash hook.
func (s *jobStore) observeShard(j *job, st runner.ShardStatus) {
	j.mu.Lock()
	switch st.State {
	case runner.ShardDone:
		j.counts.Done++
	case runner.ShardFailed:
		j.counts.Failed++
	case runner.ShardSkipped:
		j.counts.Skipped++
	}
	j.mu.Unlock()
	if st.State == runner.ShardDone && s.crashAfter > 0 &&
		s.shardsDone.Add(1) >= int64(s.crashAfter) {
		// Test-only: simulate a hard server crash (no drain, no
		// manifest update) for scripts/serve_e2e.sh.
		os.Exit(137)
	}
}

// finishJob moves the job to a terminal state and wakes waiters.
func (s *jobStore) finishJob(j *job, state, errMsg string, results []ResultRef) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = state
	j.errMsg = errMsg
	j.finishedAt = time.Now()
	j.cancel = nil
	j.cw = nil
	if results != nil {
		j.results = results
	}
	close(j.done)
}

// liveAggregates snapshots every running campaign's per-spec aggregate
// documents for /metrics, sorted by job id. O(jobs×specs×bits) — no
// trial data is touched, so the cost is flat regardless of campaign
// size.
func (s *jobStore) liveAggregates() []campaignAggregates {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	var out []campaignAggregates
	for _, j := range jobs {
		j.mu.Lock()
		cw := j.cw
		j.mu.Unlock()
		if cw == nil {
			continue
		}
		out = append(out, campaignAggregates{ID: j.id, Aggregates: cw.Snapshot()})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// publishResults seals one store file per completed (field, format)
// result and returns the refs in spec order. Partial campaigns publish
// only their completed specs. Sealing commits the pending file to its
// final .pts path atomically — the CSV representation is rendered from
// it on demand by the results handler, byte-identical to the old
// write-the-CSV path.
func publishResults(id string, rep *runner.Report, cw *store.CampaignWriter) ([]ResultRef, error) {
	var refs []ResultRef
	for i, res := range rep.Results {
		if res == nil {
			continue
		}
		if err := cw.Seal(res.Field, res.Codec); err != nil {
			return nil, fmt.Errorf("serve: publish result %d: %w", i, err)
		}
		refs = append(refs, ResultRef{Field: res.Field, Format: res.Codec, URL: resultURL(id, res.Field, res.Codec)})
	}
	return refs, nil
}

// resultURL builds the results endpoint URL for one spec.
func resultURL(id, field, format string) string {
	return fmt.Sprintf("/v1/campaigns/%s/results?field=%s&format=%s",
		id, url.QueryEscape(field), url.QueryEscape(format))
}

// newJobID returns a 16-hex-character random job id.
func newJobID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("serve: job id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// validJobID reports whether id has the shape newJobID produces; it
// gates path values before they touch the filesystem.
func validJobID(id string) bool {
	if len(id) != 16 {
		return false
	}
	for _, c := range id {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// recover scans the jobs directory and rebuilds the in-memory view: a
// job whose manifest says complete and whose result stores are all
// present is terminal; everything else — mid-run crash ("running"),
// clean drain ("cancelled"), partial (failed shards heal on resume),
// or a crash between manifest completion and result publication — is
// re-enqueued with Resume so the journal is replayed instead of
// recomputed.
func (s *jobStore) recover() ([]*job, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("serve: recover: %w", err)
	}
	var requeue []*job
	for _, ent := range entries {
		if !ent.IsDir() || !validJobID(ent.Name()) {
			continue
		}
		j, enqueue, err := s.recoverOne(ent.Name())
		if err != nil {
			// A torn job directory (e.g. crash between mkdir and
			// job.json) is skipped, not fatal: one broken job must not
			// take down the server.
			fmt.Fprintf(os.Stderr, "positserve: skipping job %s: %v\n", ent.Name(), err)
			continue
		}
		s.jobs[j.id] = j
		if enqueue {
			requeue = append(requeue, j)
		}
	}
	sort.Slice(requeue, func(a, b int) bool { return requeue[a].createdAt.Before(requeue[b].createdAt) })
	return requeue, nil
}

// recoverOne rebuilds one job from disk, reporting whether it still
// needs to run.
func (s *jobStore) recoverOne(id string) (*job, bool, error) {
	dir := filepath.Join(s.dir, id)
	raw, err := os.ReadFile(filepath.Join(dir, "job.json"))
	if err != nil {
		return nil, false, err
	}
	var p persistedJob
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, false, fmt.Errorf("job.json: %w", err)
	}
	if p.ID != id {
		return nil, false, fmt.Errorf("job.json id %q does not match directory %q", p.ID, id)
	}
	created, err := time.Parse(time.RFC3339, p.CreatedAt)
	if err != nil {
		return nil, false, fmt.Errorf("job.json created_at: %w", err)
	}
	j := &job{
		id:        id,
		req:       p.Request,
		dir:       dir,
		createdAt: created,
		state:     jobQueued,
		done:      make(chan struct{}),
	}
	if verr := (&j.req).Validate(); verr != nil {
		return nil, false, fmt.Errorf("persisted request: %s", verr.Message)
	}
	j.counts.Total = j.req.TotalShards()

	man, err := runner.ReadManifest(j.stateDir())
	if err != nil {
		return nil, false, err
	}
	if man == nil {
		// Submitted but never started: run it fresh.
		return j, true, nil
	}
	j.resume = true
	for _, sh := range man.Shards {
		switch sh.State {
		case runner.ShardDone, runner.ShardResumed:
			j.counts.Resumed++ // journaled: will load, not recompute
		}
	}
	if man.State == runner.StateComplete {
		refs, ok := existingResults(dir, j.id, runner.SpecsOf(&j.req))
		if ok {
			j.state = jobComplete
			j.finishedAt = created
			j.results = refs
			j.counts = ShardCounts{Resumed: len(man.Shards), Total: len(man.Shards)}
			close(j.done)
			return j, false, nil
		}
		// Manifest finished but a store is missing (crash inside
		// publication) or unreadable (an older store version): resume
		// replays the journal and republishes.
	}
	return j, true, nil
}

// existingResults opens every spec's sealed .pts store, returning
// refs only when all of them open: a store this build cannot read
// (ErrVersion, ErrCorrupt) counts as missing, so the job republishes
// it instead of answering every results request with a 500.
func existingResults(dir, id string, specs []runner.Spec) ([]ResultRef, bool) {
	var refs []ResultRef
	for _, sp := range specs {
		rd, err := store.Open(filepath.Join(dir, store.FileName(sp.Field, sp.Codec)))
		if err != nil {
			return nil, false
		}
		_ = rd.Close() // opened only to validate
		refs = append(refs, ResultRef{Field: sp.Field, Format: sp.Codec, URL: resultURL(id, sp.Field, sp.Codec)})
	}
	return refs, true
}
