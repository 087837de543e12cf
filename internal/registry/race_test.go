//go:build race

package registry

// raceEnabled is set under the race detector, whose runtime
// instrumentation allocates on its own.
const raceEnabled = true
