package runner

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"positres/internal/core"
)

// state owns the durable side of a run: the manifest file and the
// journal directory. With Config.Dir empty it degrades to a no-op so
// the orchestration (cancellation, watchdog, retry) works without any
// filesystem footprint.
type state struct {
	dir          string
	journalDir   string
	manifestPath string
	manifest     *Manifest
}

func (s *state) enabled() bool { return s.dir != "" }

// openState validates the state directory against the requested
// campaign. An existing manifest without Resume is ErrStateExists; an
// existing manifest with incompatible parameters is a fatal mismatch
// (resuming it would splice incompatible trial streams).
func openState(cfg *Config, params campaignParams, specs []Spec) (*state, error) {
	if cfg.Dir == "" {
		return &state{}, nil
	}
	s := &state{
		dir:          cfg.Dir,
		journalDir:   filepath.Join(cfg.Dir, "journal"),
		manifestPath: filepath.Join(cfg.Dir, "manifest.json"),
	}
	if err := os.MkdirAll(s.journalDir, 0o755); err != nil {
		return nil, fmt.Errorf("runner: state dir: %w", err)
	}
	prev, err := loadManifest(s.manifestPath)
	if err != nil {
		return nil, err
	}
	created := time.Now().UTC().Format(time.RFC3339)
	if prev != nil {
		if !cfg.Resume {
			return nil, fmt.Errorf("%w: %s", ErrStateExists, cfg.Dir)
		}
		if err := prev.compatible(params, cfg.bitsPerShard, specs); err != nil {
			return nil, err
		}
		created = prev.CreatedAt
	}
	s.manifest = &Manifest{
		Version:      manifestVersion,
		State:        StateRunning,
		CreatedAt:    created,
		Campaign:     params,
		BitsPerShard: cfg.bitsPerShard,
		Specs:        specs,
	}
	return s, nil
}

// load returns a shard's verified journal record, if any. Any read,
// framing or CRC failure — or a record for a different campaign under
// the same name — counts as "not journaled" and the shard reruns.
func (s *state) load(sh Shard, params campaignParams) (recordMeta, []core.Trial, bool) {
	if !s.enabled() {
		return recordMeta{}, nil, false
	}
	meta, trials, err := readRecord(recordPath(s.journalDir, sh))
	if err != nil {
		return recordMeta{}, nil, false
	}
	if meta.Shard != sh || meta.Campaign != params {
		return recordMeta{}, nil, false
	}
	return meta, trials, true
}

// begin marks the campaign running in the manifest before any shard
// executes, so an interrupted process leaves StateRunning behind as
// evidence.
func (s *state) begin(statuses []ShardStatus) error {
	if !s.enabled() {
		return nil
	}
	s.manifest.Shards = statuses
	return writeManifest(s.manifestPath, s.manifest)
}

// journal persists one completed shard. Safe for concurrent use:
// records are distinct files written atomically.
func (s *state) journal(st ShardStatus, params campaignParams, trials []core.Trial) error {
	return writeRecord(s.journalDir, recordMeta{
		Shard:      st.Shard,
		Campaign:   params,
		Trials:     len(trials),
		DurationNS: st.DurationNS,
		Attempts:   st.Attempts,
	}, trials)
}

// finish records the campaign's final state. Called on every exit path
// that reaches the drain, including cancellation.
func (s *state) finish(rep *Report) error {
	if !s.enabled() {
		return nil
	}
	s.manifest.Shards = rep.Shards
	s.manifest.State = rep.Outcome()
	return writeManifest(s.manifestPath, s.manifest)
}
