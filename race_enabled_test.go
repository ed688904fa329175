//go:build race

package caar

// raceEnabled is whether the tests run under the race detector, which
// allocates on its own: a goroutine start costs one allocation there.
const raceEnabled = true
