package sim

import (
	"errors"
	"testing"
	"time"
)

// fakeProc consumes a fixed schedule of event times, recording a
// global sequence shared with the timeline's event handler.
type fakeProc struct {
	name  string
	times []time.Duration
	log   *[]string
	err   error
}

func (p *fakeProc) NextEventAt() time.Duration {
	if len(p.times) == 0 {
		return Never
	}
	return p.times[0]
}

func (p *fakeProc) Step() (bool, error) {
	if p.err != nil {
		return false, p.err
	}
	if len(p.times) == 0 {
		return false, nil
	}
	*p.log = append(*p.log, p.name)
	p.times = p.times[1:]
	return true, nil
}

// arrival is one timed delivery of a test feed.
type arrival struct {
	at time.Duration
	fn func() error
}

// arrivalFeed is a Feed over a time-ordered list of deliveries.
type arrivalFeed struct {
	items []arrival
	cur   int
}

func (f *arrivalFeed) NextAt() time.Duration {
	if f.cur >= len(f.items) {
		return Never
	}
	return f.items[f.cur].at
}

func (f *arrivalFeed) Deliver() error {
	it := f.items[f.cur]
	f.cur++
	return it.fn()
}

// logTo returns a delivery that appends name to log.
func logTo(log *[]string, name string) func() error {
	return func() error {
		*log = append(*log, name)
		return nil
	}
}

func TestTimelineInterleavesGlobalOrder(t *testing.T) {
	var log []string
	a := &fakeProc{name: "a", times: []time.Duration{1, 5}, log: &log}
	b := &fakeProc{name: "b", times: []time.Duration{2, 3}, log: &log}
	tl := &Timeline{}
	tl.Add(a)
	tl.Add(b)
	feed := &arrivalFeed{items: []arrival{{0, logTo(&log, "ev0")}, {4, logTo(&log, "ev4")}}}
	tl.Arrivals = feed
	if err := tl.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"ev0", "a", "b", "b", "ev4", "a"}
	if len(log) != len(want) {
		t.Fatalf("log %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log %v, want %v", log, want)
		}
	}
	if feed.NextAt() != Never {
		t.Fatalf("feed not drained after Run: %d of %d delivered", feed.cur, len(feed.items))
	}
}

func TestTimelineEventBeforeProcessOnTie(t *testing.T) {
	var log []string
	a := &fakeProc{name: "a", times: []time.Duration{7}, log: &log}
	tl := &Timeline{}
	tl.Add(a)
	tl.Arrivals = &arrivalFeed{items: []arrival{{7, logTo(&log, "ev7")}}}
	if err := tl.Run(); err != nil {
		t.Fatal(err)
	}
	if log[0] != "ev7" || log[1] != "a" {
		t.Fatalf("tie should run the event first: %v", log)
	}
}

func TestTimelinePropagatesErrors(t *testing.T) {
	boom := errors.New("boom")
	var log []string
	tl := &Timeline{}
	tl.Add(&fakeProc{name: "a", times: []time.Duration{1}, log: &log, err: boom})
	if err := tl.Run(); !errors.Is(err, boom) {
		t.Fatalf("step error not propagated: %v", err)
	}

	tl2 := &Timeline{}
	tl2.Arrivals = &arrivalFeed{items: []arrival{{0, func() error { return boom }}}}
	if err := tl2.Run(); !errors.Is(err, boom) {
		t.Fatalf("delivery error not propagated: %v", err)
	}
}

func TestTimelineStalledProcessIsAnError(t *testing.T) {
	// A process advertising work but making no progress must not spin
	// the loop forever.
	var log []string
	p := &fakeProc{name: "a", log: &log}
	stuck := stalledProc{p}
	tl := &Timeline{}
	tl.Add(stuck)
	if err := tl.Run(); err == nil {
		t.Fatal("stalled process should surface an error")
	}
}

type stalledProc struct{ *fakeProc }

func (stalledProc) NextEventAt() time.Duration { return 3 }
func (stalledProc) Step() (bool, error)        { return false, nil }

func TestTimelineEmptyRun(t *testing.T) {
	tl := &Timeline{}
	if err := tl.Run(); err != nil {
		t.Fatalf("empty timeline should be a no-op: %v", err)
	}
}
