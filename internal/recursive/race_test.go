//go:build race

package recursive

// raceEnabled: under the race detector sync.Pool drops items at random,
// so allocation gates over pooled scratch do not hold.
const raceEnabled = true
