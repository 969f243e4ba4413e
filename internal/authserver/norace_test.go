//go:build !race

package authserver

const raceEnabled = false
