package serving

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"valora/internal/sched"
	"valora/internal/sim"
)

// The managed run's arrival feed also carries the prefetch wakes. At
// equal times the timeline must run the arrival, then the wake, then
// the process step, with Now() at the delivery time inside either.

// stepAt is a process that steps once at each of its times, logging
// each step.
type stepAt struct {
	times []time.Duration
	log   *[]string
}

func (p *stepAt) NextEventAt() time.Duration {
	if len(p.times) == 0 {
		return sim.Never
	}
	return p.times[0]
}

func (p *stepAt) Step() (bool, error) {
	*p.log = append(*p.log, fmt.Sprintf("step@%v", p.times[0]))
	p.times = p.times[1:]
	return true, nil
}

// loggedFeed builds a timeline whose feed carries requests arriving at
// arrivals and logs every arrival and wake with the timeline's Now().
func loggedFeed(arrivals ...time.Duration) (*sim.Timeline, *requestFeed, *[]string) {
	tl := &sim.Timeline{}
	log := new([]string)
	f := &requestFeed{}
	for i, at := range arrivals {
		f.reqs = append(f.reqs, &sched.Request{ID: int64(i), Arrival: at})
	}
	f.deliver = func(r *sched.Request) error {
		*log = append(*log, fmt.Sprintf("arrival%d@%v", r.ID, tl.Now()))
		return nil
	}
	f.wake = func() error {
		*log = append(*log, fmt.Sprintf("wake@%v", tl.Now()))
		return nil
	}
	tl.Arrivals = f
	return tl, f, log
}

// TestRequestFeedWakeOrdering covers a wake before an arrival, an
// arrival and a wake at the same time (the arrival first, then the
// wake, then a process step at that time), wakes scheduled out of
// order, and a wake an arrival schedules at its own time.
func TestRequestFeedWakeOrdering(t *testing.T) {
	ms := time.Millisecond
	tl, f, log := loggedFeed(10*ms, 20*ms, 20*ms)
	tl.Add(&stepAt{times: []time.Duration{10 * ms}, log: log})
	deliver := f.deliver
	f.deliver = func(r *sched.Request) error {
		if r.ID == 1 {
			// As runManaged does: a prefetch landing at once wakes
			// placement after every arrival due at the same time.
			f.schedule(tl.Now())
		}
		return deliver(r)
	}
	f.schedule(15 * ms)
	f.schedule(10 * ms)
	f.schedule(5 * ms)
	if err := tl.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"wake@5ms", "arrival0@10ms", "wake@10ms", "step@10ms",
		"wake@15ms", "arrival1@20ms", "arrival2@20ms", "wake@20ms",
	}
	if !slices.Equal(*log, want) {
		t.Fatalf("order = %v\nwant    %v", *log, want)
	}
	if f.NextAt() != sim.Never {
		t.Fatalf("feed not drained: next at %v", f.NextAt())
	}
}

// TestRequestFeedWakeCanScheduleMore checks a wake may schedule
// further wakes, each delivered at its own time.
func TestRequestFeedWakeCanScheduleMore(t *testing.T) {
	tl, f, log := loggedFeed()
	fired := 0
	f.wake = func() error {
		fired++
		*log = append(*log, fmt.Sprintf("wake@%v", tl.Now()))
		if fired < 3 {
			f.schedule(tl.Now() + time.Millisecond)
		}
		return nil
	}
	f.schedule(time.Millisecond)
	if err := tl.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"wake@1ms", "wake@2ms", "wake@3ms"}; !slices.Equal(*log, want) {
		t.Fatalf("order = %v, want %v", *log, want)
	}
}

// TestRequestFeedWakeError checks an error from a wake stops the run
// and reaches its caller.
func TestRequestFeedWakeError(t *testing.T) {
	boom := errors.New("boom")
	tl, f, log := loggedFeed(2 * time.Millisecond)
	f.wake = func() error { return boom }
	f.schedule(time.Millisecond)
	if err := tl.Run(); !errors.Is(err, boom) {
		t.Fatalf("wake error not propagated: %v", err)
	}
	if len(*log) != 0 {
		t.Fatalf("the run went on past the failed wake: %v", *log)
	}
}

// drainWakes delivers every wake on f, returning the time of each as
// NextAt reported it.
func drainWakes(t *testing.T, f *requestFeed) []time.Duration {
	t.Helper()
	var got []time.Duration
	for f.NextAt() != sim.Never {
		got = append(got, f.NextAt())
		if err := f.Deliver(); err != nil {
			t.Fatal(err)
		}
	}
	return got
}

// TestRequestFeedWakesOutOfOrder checks wakes scheduled out of order
// are delivered in ascending order.
func TestRequestFeedWakesOutOfOrder(t *testing.T) {
	f := &requestFeed{wake: func() error { return nil }}
	f.schedule(3 * time.Second)
	f.schedule(1 * time.Second)
	f.schedule(2 * time.Second)
	want := []time.Duration{1 * time.Second, 2 * time.Second, 3 * time.Second}
	if got := drainWakes(t, f); !slices.Equal(got, want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
}

// TestRequestFeedWakesPeek checks an empty feed reads Never and NextAt
// does not consume a wake.
func TestRequestFeedWakesPeek(t *testing.T) {
	fired := 0
	f := &requestFeed{wake: func() error { fired++; return nil }}
	if at := f.NextAt(); at != sim.Never {
		t.Fatalf("empty feed: next at %v, want Never", at)
	}
	f.schedule(time.Second)
	for i := 0; i < 2; i++ {
		if at := f.NextAt(); at != time.Second || fired != 0 {
			t.Fatalf("NextAt = %v after %d wakes, want 1s and none fired", at, fired)
		}
	}
	if err := f.Deliver(); err != nil {
		t.Fatal(err)
	}
	if at := f.NextAt(); fired != 1 || at != sim.Never {
		t.Fatalf("after one delivery: %d wakes fired, next at %v; want 1 and Never", fired, at)
	}
}

// TestRequestFeedWakesSortedProperty checks wakes at arbitrary times,
// negative ones included, are all delivered in ascending order.
func TestRequestFeedWakesSortedProperty(t *testing.T) {
	prop := func(offsets []int16) bool {
		f := &requestFeed{wake: func() error { return nil }}
		for _, o := range offsets {
			f.schedule(time.Duration(o) * time.Millisecond)
		}
		got := drainWakes(t, f)
		return len(got) == len(offsets) && slices.IsSorted(got)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRequestFeedWakesRandomizedStress schedules 2,000 wakes at random
// times, many tied, and checks all are delivered in ascending order.
func TestRequestFeedWakesRandomizedStress(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	fired := 0
	f := &requestFeed{wake: func() error { fired++; return nil }}
	const n = 2000
	for i := 0; i < n; i++ {
		f.schedule(time.Duration(rng.Intn(1000)) * time.Millisecond)
	}
	got := drainWakes(t, f)
	if len(got) != n || fired != n || !slices.IsSorted(got) {
		t.Fatalf("delivered %d wakes (%d fired), sorted %v; want %d in ascending order",
			len(got), fired, slices.IsSorted(got), n)
	}
}

// TestRequestFeedWakesSteadyZeroAlloc checks a steady schedule-and-
// deliver cycle reuses the wake list.
func TestRequestFeedWakesSteadyZeroAlloc(t *testing.T) {
	f := &requestFeed{wake: func() error { return nil }}
	for i := 0; i < 8; i++ {
		f.schedule(time.Duration(i))
	}
	now := time.Duration(8)
	// One run of 1,000 cycles: AllocsPerRun rounds down per run, so a
	// list that regrows only every few cycles still shows.
	if allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 1000; i++ {
			f.schedule(now)
			now++
			if err := f.Deliver(); err != nil {
				t.Fatal(err)
			}
		}
	}); allocs != 0 {
		t.Fatalf("1,000 steady wake cycles made %.0f allocs, want 0", allocs)
	}
}
