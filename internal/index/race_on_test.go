//go:build race

package index

// raceEnabled: the race detector allocates on its own account and makes
// sync.Pool drop items at random, so allocation counts mean nothing under it.
const raceEnabled = true
