//go:build !race

package analysis_test

// raceEnabled is set under the race detector, whose runtime
// instrumentation allocates on its own.
const raceEnabled = false
