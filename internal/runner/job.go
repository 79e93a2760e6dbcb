package runner

import "path/filepath"

// Job-level API surface: the read-side helpers a supervising layer
// (cmd/positserve's job store, operator tooling) needs to inspect a
// campaign state directory without re-implementing the manifest
// format. The write side stays private — only Run mutates state.

// ReadManifest loads the manifest of the campaign state directory
// dir, i.e. dir/manifest.json. A directory with no manifest returns
// (nil, nil) — "no campaign here" is not an error, it is the normal
// state of a fresh job. A present but unreadable, unparsable or
// version-incompatible manifest returns an error. Safe for concurrent
// use with a running campaign: the manifest is only ever replaced by
// atomic rename, so a reader observes either the previous or the new
// complete document, never a torn one.
func ReadManifest(dir string) (*Manifest, error) {
	return loadManifest(filepath.Join(dir, "manifest.json"))
}

// Outcome maps the report to the manifest state string recorded for
// it: StateCancelled if the run was interrupted, StatePartial if any
// shard failed permanently, StateComplete otherwise. It is the
// single-word answer a job supervisor stores and serves.
func (r *Report) Outcome() string {
	switch {
	case r.Cancelled:
		return StateCancelled
	case r.Failed > 0:
		return StatePartial
	default:
		return StateComplete
	}
}
