//go:build race

package core

// raceEnabled reports a -race build, whose sync.Pool drops items at
// random, so allocation counts of pooled paths are not exact.
const raceEnabled = true
