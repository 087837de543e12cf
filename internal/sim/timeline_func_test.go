package sim

import (
	"testing"
	"time"
)

// TestScheduleFuncOrdering checks that callbacks interleave with
// arrivals in global virtual-time order, after the arrival at equal
// timestamps.
func TestScheduleFuncOrdering(t *testing.T) {
	tl := &Timeline{}
	var order []string
	tl.Arrivals = &arrivalFeed{items: []arrival{{10 * time.Millisecond, logTo(&order, "arrival@10")}}}
	tl.ScheduleFunc(5*time.Millisecond, func() error {
		order = append(order, "func@5")
		return nil
	})
	tl.ScheduleFunc(10*time.Millisecond, func() error {
		if tl.Now() != 10*time.Millisecond {
			t.Fatalf("Now() = %v inside callback, want 10ms", tl.Now())
		}
		order = append(order, "func@10")
		return nil
	})
	if err := tl.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"func@5", "arrival@10", "func@10"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestScheduleFuncCanScheduleMore checks a callback may enqueue
// further events (fetch completions chaining the next link transfer).
func TestScheduleFuncCanScheduleMore(t *testing.T) {
	tl := &Timeline{}
	fired := 0
	var chain func() error
	chain = func() error {
		fired++
		if fired < 3 {
			tl.ScheduleFunc(tl.Now()+time.Millisecond, chain)
		}
		return nil
	}
	tl.ScheduleFunc(time.Millisecond, chain)
	if err := tl.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 3 {
		t.Fatalf("fired %d callbacks, want 3", fired)
	}
}
