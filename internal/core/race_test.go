//go:build race

package core

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop items at random, so allocation counts that rely on a pool are not
// pinned there.
const raceEnabled = true
