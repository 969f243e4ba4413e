//go:build race

package dohserver

// raceEnabled: under the race detector sync.Pool drops items at random,
// so allocation budgets over pooled scratch do not hold.
const raceEnabled = true
