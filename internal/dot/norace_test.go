//go:build !race

package dot

const raceEnabled = false
