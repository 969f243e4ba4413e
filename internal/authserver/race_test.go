//go:build race

package authserver

// raceEnabled: under the race detector sync.Pool drops items at random,
// so allocation gates over pooled objects do not hold.
const raceEnabled = true
