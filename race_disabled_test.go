//go:build !race

package caar

// raceEnabled is whether the tests run under the race detector.
const raceEnabled = false
