// Package copycheck is the golden fixture for the copyhygiene
// analyzer: sim.Timeline use from non-owning goroutines. By-value
// copies are go vet's copylocks check, not this analyzer's.
package copycheck

import "sim"

func disowned(t *sim.Timeline, done chan struct{}) {
	go func() {
		t.Step() // want "sim.Timeline method called from a goroutine that does not own it"
		close(done)
	}()
}

func directDisowned(t *sim.Timeline) {
	go t.Step() // want "sim.Timeline method called from a goroutine that does not own it"
}

// owned is clean: the goroutine's timeline arrives as its own
// parameter, so the shard owns what it advances.
func owned(t *sim.Timeline, done chan struct{}) {
	go func(own *sim.Timeline) {
		own.Step()
		close(done)
	}(t)
}
