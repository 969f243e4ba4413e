//go:build !race

package dnsclient

const raceEnabled = false
