// Package sim is a miniature stand-in for valora/internal/sim used by
// the copyhygiene goldens: the analyzer matches sim.Timeline by
// (package name, type name), so this local Timeline exercises the same
// rule as the real one.
package sim

type Timeline struct {
	now int
}

func (t *Timeline) Step() { t.now++ }
