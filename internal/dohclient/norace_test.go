//go:build !race

package dohclient

const raceEnabled = false
