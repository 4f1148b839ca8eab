//go:build race

package blockstore

// raceEnabled reports a -race build, whose sync.Pool drops Puts at random.
const raceEnabled = true
