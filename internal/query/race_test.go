//go:build race

package query

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop pooled values at random, so the engine's scratch pool cannot
// reach an allocation-free steady state under it.
const raceEnabled = true
