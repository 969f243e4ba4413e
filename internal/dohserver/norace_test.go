//go:build !race

package dohserver

const raceEnabled = false
