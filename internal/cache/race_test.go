//go:build race

package cache

// raceEnabled: under the race detector sync.Pool drops items at random,
// so allocation gates over pooled objects do not hold.
const raceEnabled = true
