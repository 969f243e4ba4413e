//go:build race

package geoip

// raceEnabled: the oracle's map walk is slow under the race detector,
// and the sweep has no concurrency for it to check, so it samples.
const raceEnabled = true
