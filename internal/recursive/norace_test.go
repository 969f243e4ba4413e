//go:build !race

package recursive

const raceEnabled = false
