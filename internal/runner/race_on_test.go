//go:build race

package runner

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a random quarter of its Puts, so bounds that rely on a pooled
// buffer being reused do not hold under it.
const raceEnabled = true
