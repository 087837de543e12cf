// Package sim provides the discrete-event backbone of the VaLoRA
// simulator: a virtual clock and the Timeline that interleaves
// arrivals with process steps. All serving experiments run in virtual
// time so a multi-minute trace replays in milliseconds of wall time
// and results are fully deterministic.
package sim

import "time"

// Clock is a virtual clock. The zero value starts at t=0.
type Clock struct {
	now time.Duration
}

// Now reports the current virtual time as an offset from simulation
// start.
func (c *Clock) Now() time.Duration { return c.now }

// Advance moves the clock forward by d. Negative advances are ignored:
// virtual time never runs backwards.
func (c *Clock) Advance(d time.Duration) {
	if d > 0 {
		c.now += d
	}
}

// AdvanceTo moves the clock forward to t if t is in the future.
func (c *Clock) AdvanceTo(t time.Duration) {
	if t > c.now {
		c.now = t
	}
}
