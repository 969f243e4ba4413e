//go:build race

package campaign

// raceEnabled: the race detector's shadow memory and its sync.Pool
// behaviour make heap readings meaningless, so the memory gate skips.
const raceEnabled = true
