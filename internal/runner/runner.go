// Package runner is the durable campaign orchestration layer: it
// expands the canonical spec.CampaignSpec into a (field, codec)
// matrix, shards it into bit-range work units, journals every
// completed shard to disk with CRC-guarded atomic record writes, and
// replays only the missing shards after a crash, SIGINT or node
// preemption. Because internal/core draws every random choice from a
// PRNG stream keyed by (seed, field, codec, bit, trial), a resumed
// campaign is bit-identical to an uninterrupted one — the on-disk
// counterpart of the checkpoint/restart protection scheme the paper
// cites (refs [37], [23]), applied to the experiment harness itself.
//
// Robustness properties, each pinned by a test in runner_test.go:
//
//   - cancellation: ctx cancellation (e.g. from signal.NotifyContext)
//     drains the shard pool; completed shards stay journaled, in-flight
//     shards are discarded, and the manifest records "cancelled";
//   - watchdog: a per-shard timeout abandons a stuck attempt and
//     retries it;
//   - bounded retry: transient shard failures back off exponentially
//     up to the spec's retry budget; a shard that exhausts it is
//     recorded as failed and the campaign completes the rest (graceful
//     degradation to a "partial" outcome instead of a crash).
//
// The same watchdog/retry/backoff machinery drives distributed runs:
// positserve's coordinator supplies Config.Execute to ship each shard
// to a remote worker, so a dead or slow worker is just a failed
// attempt — backed off, retried, and reassigned like any local fault.
package runner

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"sync"
	"time"

	"positres/internal/core"
	"positres/internal/numfmt"
	"positres/internal/sdrbench"
	"positres/internal/spec"
	"positres/internal/telemetry"
)

// Config parameterizes a durable campaign run. The campaign itself —
// what to compute — lives entirely in Spec; the remaining fields
// control where state lives and how execution is scheduled, retried
// and observed.
type Config struct {
	// Spec is the canonical campaign description. Required; Run
	// validates it (applying the documented defaults in place) and
	// expands its Fields × Formats cross product via SpecsOf.
	Spec *spec.CampaignSpec
	// Dir is the state directory holding manifest.json and journal/.
	// Empty disables durability (no journal, no resume) while keeping
	// cancellation, watchdog and retry semantics.
	Dir string
	// Resume continues a campaign found in Dir instead of refusing to
	// touch it. Verified journal records are loaded and only missing
	// shards run. Resuming an empty Dir is a fresh start.
	Resume bool
	// Workers bounds concurrent shards; 0 means GOMAXPROCS.
	Workers int
	// RetryBaseDelay seeds the exponential backoff between attempts
	// (delay = Backoff(base, attempt), capped at 30s); 0 means 50ms.
	RetryBaseDelay time.Duration
	// Execute, when non-nil, replaces the local shard computation:
	// each attempt calls it instead of core.RunRange, under the same
	// watchdog, retry and journaling machinery. positserve's
	// coordinator uses it to dispatch shards to remote workers; the
	// trials it returns must be bit-identical to a local computation
	// (the PRNG keying makes that hold for any faithful executor).
	Execute func(ctx context.Context, sh Shard) ([]core.Trial, error)
	// FaultHook, when non-nil, runs at the start of every shard
	// attempt; a non-nil return fails that attempt. It exists to
	// inject transient and permanent faults in tests.
	FaultHook func(sh Shard, attempt int) error
	// Sleep, when non-nil, replaces the backoff wait (tests stub it to
	// avoid real delays). It must honor ctx cancellation.
	Sleep func(ctx context.Context, d time.Duration) error
	// OnShardDone, when non-nil, observes every shard outcome as it
	// happens (progress reporting, crash injection in the e2e test).
	// It is called serially.
	OnShardDone func(st ShardStatus)
	// Sink receives every completed shard's trials — fresh and
	// journal-resumed alike — as the campaign runs. Required: it is the
	// only way trials leave the runner, so a campaign of any size runs
	// in bounded memory and the Report carries no trials. Each shard is
	// appended once, by the worker that computed it, after the shard is
	// journaled, so appends of different shards run concurrently (the
	// journal stays the durability source, so a sink failure costs the
	// shard, not the campaign — the shard is reported failed and a
	// Resume run can replay it). The trials handed to the sink live in
	// the worker's reused slab, so the sink must copy what it keeps
	// (ShardSink). A store.CampaignWriter satisfies this interface.
	Sink ShardSink
	// Metrics, when non-nil, receives shard lifecycle counts, the
	// shard latency histogram, retry/backoff tallies and worker busy
	// time as the run progresses; it is also propagated to the core
	// engine so injection counts land in the same set. Purely
	// observational — never part of campaign identity.
	Metrics *telemetry.Metrics

	// Derived from Spec by withDefaults; unexported so the spec stays
	// the single source of truth.
	campaign     core.Config
	bitsPerShard int
	shardTimeout time.Duration
	maxRetries   int
}

// withDefaults derives the execution parameters from the (already
// validated) spec and fills scheduling defaults.
func (cfg *Config) withDefaults() Config {
	c := *cfg
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.RetryBaseDelay <= 0 {
		c.RetryBaseDelay = 50 * time.Millisecond
	}
	c.campaign = core.ConfigFromSpec(c.Spec)
	// Shards are the unit of parallelism; the engine pool inside one
	// shard stays serial.
	c.campaign.Workers = 1
	c.campaign.Metrics = c.Metrics
	c.bitsPerShard = c.Spec.BitsPerShard
	c.shardTimeout = c.Spec.ShardTimeoutDuration()
	c.maxRetries = c.Spec.MaxRetriesValue()
	c.Metrics.SetWorkers(c.Workers)
	return c
}

// sleep waits for d or until ctx is cancelled.
func (cfg *Config) sleep(ctx context.Context, d time.Duration) error {
	if cfg.Sleep != nil {
		return cfg.Sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ShardSink consumes completed shards' trials as a campaign runs.
// AppendShard is called once per completed shard, with the shard's
// half-open bit range; every trial carries the (field, codec)
// identity and a bit within [bitLo, bitHi). Calls for different
// shards — of one spec or of several — happen concurrently, from the
// runner's shard workers, so implementations must be safe for
// concurrent use. An error fails that shard (not the campaign) — the
// journal remains authoritative, so the shard is replayable by a
// Resume run.
//
// AppendShard must not retain trials after it returns: the slice is
// the shard worker's slab, which the runner refills with the worker's
// next shard. An implementation copies what it keeps, as the store
// does into its block and per-bit aggregates.
type ShardSink interface {
	AppendShard(field, codec string, bitLo, bitHi int, trials []core.Trial) error
}

// SpecsOf expands a validated campaign spec into its (field, codec)
// matrix: the Fields × Formats cross product in declaration order,
// with format names canonicalized through the registry. This is the
// one expansion used by the runner, positserve and positcampaign, so
// shard plans agree everywhere.
func SpecsOf(cs *spec.CampaignSpec) []Spec {
	var out []Spec
	for _, f := range cs.Fields {
		for _, name := range cs.Formats {
			codec, err := numfmt.Lookup(name)
			if err != nil {
				continue // impossible after Validate; skip rather than panic
			}
			out = append(out, Spec{Field: f, Codec: codec.Name(), N: cs.N, Seed: cs.Seed})
		}
	}
	return out
}

// Report is the outcome of a durable campaign run.
type Report struct {
	// Specs is the expanded (field, codec) matrix, SpecsOf(cfg.Spec).
	Specs []Spec
	// Results is index-aligned with Specs. A spec whose shards all
	// reached the sink (freshly or from the journal) gets a
	// *core.Result with its identity, N and Elapsed, the sum of the
	// spec's shard durations, journaled ones included — not its wall
	// time; a spec with failed or skipped shards gets nil. Trials is
	// always nil: the rows are in the sink (typically a store).
	Results []*core.Result
	// Shards lists every shard outcome in deterministic (spec, bit)
	// order.
	Shards []ShardStatus
	// Completed counts shards computed and journaled this run.
	Completed int
	// Resumed counts shards loaded from a prior run's journal.
	Resumed int
	// Failed counts shards that exhausted their retry budget.
	Failed int
	// Skipped counts shards that never ran (campaign cancelled first).
	Skipped int
	// Cancelled reports that the run was interrupted; completed work
	// is journaled and a later Resume run picks up the remainder.
	Cancelled bool
	// Elapsed is this run's wall-clock time (journal loads included).
	Elapsed time.Duration
}

// Complete reports a fully successful campaign.
func (r *Report) Complete() bool { return !r.Cancelled && r.Failed == 0 && r.Skipped == 0 }

// Partial reports a finished campaign with failed shards.
func (r *Report) Partial() bool { return !r.Cancelled && r.Failed > 0 }

// Run executes the campaign described by cfg.Spec durably, streaming
// every completed shard into cfg.Sink. Fatal setup problems (no sink,
// invalid spec, incompatible journal, unwritable state directory)
// return an error; shard-level failures and cancellation are reported
// in the Report instead, so one bad shard cannot take down the
// campaign.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	start := time.Now()
	if cfg.Spec == nil {
		return nil, fmt.Errorf("runner: Config.Spec is required")
	}
	if cfg.Sink == nil {
		return nil, fmt.Errorf("runner: Config.Sink is required")
	}
	if verr := cfg.Spec.Validate(); verr != nil {
		return nil, fmt.Errorf("runner: invalid campaign spec: %w", verr)
	}
	c := cfg.withDefaults()
	specs := SpecsOf(c.Spec)
	if len(specs) == 0 {
		return nil, fmt.Errorf("runner: campaign spec expands to no (field, format) pairs")
	}

	// Resolve every spec against the registries up front: a typo must
	// fail before any state is touched.
	codecs := make([]numfmt.Codec, len(specs))
	fields := make([]sdrbench.Field, len(specs))
	var shards []Shard
	// Shard IDs (journal filenames) are keyed on Field+Codec, so two
	// specs sharing that pair would collide in the journal.
	seen := map[string]bool{}
	for i, sp := range specs {
		f, err := sdrbench.Lookup(sp.Field)
		if err != nil {
			return nil, fmt.Errorf("runner: spec %d: %w", i, err)
		}
		cd, err := numfmt.Lookup(sp.Codec)
		if err != nil {
			return nil, fmt.Errorf("runner: spec %d: %w", i, err)
		}
		if sp.N <= 0 {
			return nil, fmt.Errorf("runner: spec %d (%s): non-positive N", i, sp.Key())
		}
		if seen[sp.Key()] {
			return nil, fmt.Errorf("runner: duplicate spec %s", sp.Key())
		}
		seen[sp.Key()] = true
		fields[i], codecs[i] = f, cd
		shards = append(shards, shardsFor(sp, cd.Width(), c.bitsPerShard)...)
	}
	params := paramsOf(c.campaign)

	st, err := openState(&c, params, specs)
	if err != nil {
		return nil, err
	}

	// Load verified journal records for the shards we expect.
	// Journal-resumed shards flow through the sink too, so a resumed
	// campaign's store is as complete as a fresh one.
	statuses := make([]ShardStatus, len(shards))
	for i, sh := range shards {
		statuses[i] = ShardStatus{Shard: sh, State: ShardSkipped}
		if meta, trials, ok := st.load(sh, params); ok {
			statuses[i].State = ShardResumed
			statuses[i].Attempts = meta.Attempts
			statuses[i].DurationNS = meta.DurationNS
			if serr := c.Sink.AppendShard(sh.Field, sh.Codec, sh.BitLo, sh.BitHi, trials); serr != nil {
				statuses[i].State = ShardFailed
				statuses[i].Error = fmt.Sprintf("sink: %v", serr)
			}
			// Attempts = 1: the retries happened in the previous run
			// and were counted by that run's metrics.
			c.Metrics.ObserveShard(statuses[i].State, 0, 1)
		}
	}
	if err := st.begin(statuses); err != nil {
		return nil, err
	}

	// Shard worker pool. Statuses are written by index (disjoint); the
	// mutex serializes the OnShardDone callback only. A local shard
	// injects into its field's dataset, shared by every format: the
	// feeder resolves each shard's cache entry in feed order, which is
	// field-major. When it feeds a field's first shard it also starts
	// generating the next fed field's dataset (prefetch), so that
	// generation overlaps this field's shards instead of stalling
	// every worker on its sync.Once later. Generation otherwise
	// happens in the worker, on first use. Between two field changes
	// the feeder looks up only the current field and the one
	// generating ahead, so with room for every in-flight shard's
	// dataset plus that one (Workers+1 entries) no entry is evicted
	// while shards of its field are still to come, and each field
	// generates once per run.
	type job struct {
		i    int
		data *sdrbench.Dataset // nil when Execute brings its own data
	}
	datasets := sdrbench.NewCache(c.Workers+1, c.Metrics.ObserveDatasetGenerate)
	var prefetch sync.WaitGroup
	var mu sync.Mutex
	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < c.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The worker's trial slab: every local shard it runs
			// computes into it (runShard). It is free again once the
			// sink's AppendShard returns, because a sink keeps no
			// reference to the trials.
			var slab []core.Trial
			for jb := range jobs {
				if ctx.Err() != nil {
					continue // cancelled: drain remaining shards without working
				}
				busyStart := time.Now()
				sh := shards[jb.i]
				var data []float64
				if jb.data != nil {
					data = jb.data.Data()
				}
				trials, status := runShard(ctx, &c, codecs[specIndex(specs, sh.Spec)], sh, data, &slab)
				if status.State == ShardDone && st.enabled() {
					if jerr := st.journal(status, params, trials); jerr != nil {
						// A shard whose durability write failed is a
						// failed shard: reporting it done would let a
						// resume silently lose it.
						status.State = ShardFailed
						status.Error = jerr.Error()
					}
				}
				c.Metrics.AddWorkerBusy(time.Since(busyStart))
				if status.State == ShardDone {
					// Journal first (above), sink second: durability is
					// already settled, so a sink failure only fails this
					// shard and a Resume run replays it into a new store.
					if serr := c.Sink.AppendShard(sh.Field, sh.Codec, sh.BitLo, sh.BitHi, trials); serr != nil {
						status.State = ShardFailed
						status.Error = fmt.Sprintf("sink: %v", serr)
					}
				}
				statuses[jb.i] = status
				c.Metrics.ObserveShard(status.State, status.Duration(), status.Attempts)
				if c.OnShardDone != nil {
					mu.Lock()
					c.OnShardDone(status)
					mu.Unlock()
				}
			}
		}()
	}
	dataset := func(i int) *sdrbench.Dataset {
		sh := shards[i]
		return datasets.Dataset(fields[specIndex(specs, sh.Spec)], sh.N, sh.Seed)
	}
	prev := -1 // the shard fed before this one
feed:
	for i, sh := range shards {
		if statuses[i].State == ShardResumed {
			continue // already satisfied by the journal
		}
		jb := job{i: i}
		if c.Execute == nil {
			jb.data = dataset(i)
			if prev < 0 || shards[prev].Field != sh.Field {
				if next := nextField(shards, statuses, i); next >= 0 {
					ahead := dataset(next)
					prefetch.Add(1)
					go func() {
						defer prefetch.Done()
						if ctx.Err() == nil { // a cancelled run generates nothing ahead
							ahead.Data()
						}
					}()
				}
			}
		}
		prev = i
		select {
		case jobs <- jb:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	prefetch.Wait()

	rep := &Report{
		Specs:     specs,
		Results:   make([]*core.Result, len(specs)),
		Shards:    statuses,
		Cancelled: ctx.Err() != nil,
		Elapsed:   time.Since(start),
	}
	for _, s := range statuses {
		switch s.State {
		case ShardDone:
			rep.Completed++
		case ShardResumed:
			rep.Resumed++
		case ShardFailed:
			rep.Failed++
		default:
			rep.Skipped++
		}
	}

	// A spec is complete when every one of its shards reached the sink.
	for si, sp := range specs {
		res := &core.Result{Field: sp.Field, Codec: sp.Codec, N: sp.N}
		for _, s := range statuses {
			if s.Spec != sp {
				continue
			}
			if s.State != ShardDone && s.State != ShardResumed {
				res = nil
				break
			}
			res.Elapsed += s.Duration()
		}
		rep.Results[si] = res
	}

	if err := st.finish(rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// nextField returns the first shard after i that a run feeds (one not
// resumed from the journal) of another field than shard i's, or -1
// when there is none. Every shard of a run shares its N and seed, so
// another field is another dataset.
func nextField(shards []Shard, statuses []ShardStatus, i int) int {
	for j := i + 1; j < len(shards); j++ {
		if statuses[j].State != ShardResumed && shards[j].Field != shards[i].Field {
			return j
		}
	}
	return -1
}

// specIndex finds the spec's position; specs are few, linear scan is
// fine.
func specIndex(specs []Spec, sp Spec) int {
	for i := range specs {
		if specs[i] == sp {
			return i
		}
	}
	return -1
}

// runShard executes one shard with watchdog and bounded retry. Local
// computation fills the worker's slab in place (core.RunRangeInto),
// first growing it to the shard's size if it is too small, and reuses
// it across retry attempts; the trials it returns alias *slab. An
// attempt abandoned by the watchdog retires the slab: its orphaned
// goroutine may still be writing into it, so *slab is set to nil and
// the next attempt, like every later shard of the worker, starts from
// a fresh one.
func runShard(ctx context.Context, cfg *Config, codec numfmt.Codec, sh Shard, data []float64, slab *[]core.Trial) ([]core.Trial, ShardStatus) {
	st := ShardStatus{Shard: sh, State: ShardFailed}
	start := time.Now()
	var lastErr error
	need := (sh.BitHi - sh.BitLo) * cfg.campaign.TrialsPerBit
	for attempt := 1; attempt <= cfg.maxRetries+1; attempt++ {
		st.Attempts = attempt
		if attempt > 1 {
			wait := Backoff(cfg.RetryBaseDelay, attempt-1)
			cfg.Metrics.ObserveBackoff(wait)
			if err := cfg.sleep(ctx, wait); err != nil {
				st.State = ShardSkipped
				st.Error = err.Error()
				return nil, st
			}
		}
		if cfg.Execute == nil && cap(*slab) < need {
			*slab = make([]core.Trial, need)
		}
		trials, abandoned, err := attemptShard(ctx, cfg, codec, sh, data, attempt, *slab)
		if err == nil {
			st.State = ShardDone
			st.Error = ""
			st.DurationNS = int64(time.Since(start))
			return trials, st
		}
		if abandoned {
			*slab = nil // still owned by the abandoned attempt's goroutine
		}
		if ctx.Err() != nil {
			// The campaign itself is shutting down — not a shard fault.
			st.State = ShardSkipped
			st.Error = err.Error()
			return nil, st
		}
		lastErr = err
	}
	st.Error = fmt.Sprintf("%v (after %d attempts)", lastErr, st.Attempts)
	return nil, st
}

// Backoff computes the exponential retry delay base << (attempt-1),
// capped at 30s. It is exported because positserve's coordinator
// reuses the same schedule to cool down workers that failed a shard
// or a heartbeat.
func Backoff(base time.Duration, attempt int) time.Duration {
	const limit = 30 * time.Second
	d := base
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= limit {
			return limit
		}
	}
	return d
}

// JitteredBackoff is Backoff with a bounded, deterministic jitter: the
// delay is scaled by a factor in [0.75, 1.25) derived from an FNV-1a
// hash of (key, attempt). The coordinator's dispatcher uses it for
// worker cooldowns so a fleet of workers failed by the same event
// (one dead peer, one chaos burst) does not re-dispatch in lockstep —
// the thundering-herd guard. Because the factor is a pure function of
// its inputs, a replayed run waits the same amount at every step, and
// timing never feeds campaign results, so TestDistributedEquivalence
// stays byte-identical.
func JitteredBackoff(base time.Duration, attempt int, key string) time.Duration {
	d := Backoff(base, attempt)
	h := fnv.New64a()
	_, _ = io.WriteString(h, key)
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(attempt))
	_, _ = h.Write(buf[:])
	// Map the hash to [0.75, 1.25): three quarters plus a half-unit
	// fraction. 1<<53 keeps the conversion exact in float64.
	frac := float64(h.Sum64()>>11) / float64(uint64(1)<<53)
	return time.Duration(float64(d) * (0.75 + frac/2))
}

// attemptShard runs one attempt under the watchdog. The attempt body
// executes in its own goroutine; if the watchdog (or the campaign
// context) fires first, the attempt is abandoned (reported in the
// second return) — its goroutine drains in the background via the
// shared cancelled context and its result is discarded through the
// buffered channel. Local computation fills buf in place via
// core.RunRangeInto; an abandoned attempt keeps writing into it until
// its context check, which is why runShard retires the slab on
// abandonment. When Execute is set the body dispatches remotely
// instead of computing locally; the surrounding machinery is
// identical, which is how shard reassignment away from a dead worker
// falls out of the ordinary retry loop.
func attemptShard(ctx context.Context, cfg *Config, codec numfmt.Codec, sh Shard, data []float64, attempt int, buf []core.Trial) ([]core.Trial, bool, error) {
	actx := ctx
	cancel := func() {}
	if cfg.shardTimeout > 0 {
		actx, cancel = context.WithTimeout(ctx, cfg.shardTimeout)
	}
	defer cancel()
	type outcome struct {
		trials []core.Trial
		err    error
	}
	done := make(chan outcome, 1)
	go func() {
		if cfg.FaultHook != nil {
			if err := cfg.FaultHook(sh, attempt); err != nil {
				done <- outcome{nil, fmt.Errorf("runner: shard %s attempt %d: %w", sh.ID(), attempt, err)}
				return
			}
		}
		if cfg.Execute != nil {
			trials, err := cfg.Execute(actx, sh)
			done <- outcome{trials, err}
			return
		}
		trials, err := core.RunRangeInto(actx, cfg.campaign, codec, sh.Field, data, sh.BitLo, sh.BitHi, buf)
		done <- outcome{trials, err}
	}()
	select {
	case out := <-done:
		return out.trials, false, out.err
	case <-actx.Done():
		return nil, true, fmt.Errorf("runner: shard %s attempt %d: watchdog: %w", sh.ID(), attempt, actx.Err())
	}
}
