package sim

import (
	"fmt"
	"time"
)

// Never marks the absence of a next event: a Process returning Never
// from NextEventAt is idle and will not be stepped until new work
// reaches it (e.g. through a Timeline arrival).
const Never = time.Duration(-1)

// noCopy is the zero-size marker `go vet`'s copylocks check recognizes
// (it has Lock and Unlock), like sync.WaitGroup's. Embedding it as the
// first field costs no space.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// Process is one steppable participant on a shared Timeline — a
// serving instance with its own local clock, stepped one scheduling
// iteration at a time.
type Process interface {
	// NextEventAt reports the virtual time at which the process can
	// next make progress, or Never when it is idle.
	NextEventAt() time.Duration
	// Step executes one unit of progress. It reports whether any
	// progress was made.
	Step() (bool, error)
}

// Timeline interleaves an external input stream (the Arrivals feed)
// and the internal steps of several Processes on one shared virtual
// clock. It is the multi-instance generalization of driving a single
// Server: at every turn the globally earliest pending occurrence runs
// first, so cross-instance decisions (dispatch, load inspection)
// observe a causally consistent global order. At equal times the feed
// delivers first, then the lowest-index process steps, keeping runs
// deterministic.
//
// Arrivals come from a cursor (the Arrivals feed), not from a heap: a
// trace is already in arrival order, so each turn compares the feed's
// head with the process heap. Process keys are held in an indexed
// min-heap: selecting the next process is O(log n) per turn instead of
// a full rescan. The timeline re-reads a process's key after stepping
// it; a delivery that mutates some other process's schedule
// (submitting a request to an instance) must report that via Refresh,
// the decrease-key operation.
//
// A Timeline must not be copied: its heap indices keep describing the
// original. The noCopy marker makes `go vet`'s copylocks check flag
// copies.
type Timeline struct {
	_     noCopy
	procs []Process
	// at caches each process's next event time (Never = idle).
	at []time.Duration
	// heap holds the indices of non-idle processes ordered by (at,
	// index); pos maps a process index to its heap slot (-1 = idle).
	heap []int
	pos  []int
	// now is the virtual time of the occurrence currently (or last)
	// dispatched by Run.
	now time.Duration

	// Arrivals, when set, is the time-ordered external input stream.
	// Run delivers its head when it becomes due, before any process
	// step at the same virtual time (an arrival at t must be visible
	// to an instance deciding at t); Now reports the delivery time
	// inside Deliver. Deliveries that change a process's schedule must
	// call Refresh for it.
	Arrivals Feed

	// AfterStep, when set, runs after each process step (and its
	// Refresh). It is the cluster-management hook: dispatching queued
	// work freed by the step, autoscaling decisions, retiring drained
	// instances. A hook that mutates another process's schedule must
	// Refresh it, and may Add or Remove processes.
	AfterStep func(i int) error
}

// Feed is a time-ordered input stream: Timeline.Arrivals, or one
// process's private stream under RunIndependent. Each item is
// delivered when the clock reaches its timestamp, before any process
// step at that time. A delivery may add items to the feed (a managed
// run's arrival schedules a wake-up for its prefetch completion), so
// long as none is earlier than the current time.
type Feed interface {
	// NextAt reports the delivery time of the head item, or Never when
	// the feed is exhausted (or delivery is currently blocked).
	NextAt() time.Duration
	// Deliver hands the head item to its consumer and advances the
	// feed. It must not be called when NextAt is Never.
	Deliver() error
}

// Add registers a process on the timeline and returns its index (the
// handle Refresh takes). Indices are assigned in registration order.
func (t *Timeline) Add(p Process) int {
	i := len(t.procs)
	t.procs = append(t.procs, p)
	t.at = append(t.at, Never)
	t.pos = append(t.pos, -1)
	t.Refresh(i)
	return i
}

// Remove detaches process i from the timeline: it is deleted from the
// indexed heap (O(log n)) and will never be stepped again. Indices are
// not reused — other processes keep their handles — so scaling events
// can interleave with steps mid-run (the autoscaler retires a drained
// instance without disturbing the rest of the fleet). Removing an
// already-removed or unknown index is a no-op.
func (t *Timeline) Remove(i int) {
	if i < 0 || i >= len(t.procs) || t.procs[i] == nil {
		return
	}
	if t.pos[i] >= 0 {
		t.hremove(i)
	}
	t.procs[i] = nil
	t.at[i] = Never
}

// Now reports the virtual time of the occurrence Run is currently
// dispatching (or last dispatched) — the clock hooks like AfterStep
// read for time-based decisions (autoscaler cooldowns).
func (t *Timeline) Now() time.Duration { return t.now }

// Refresh re-reads process i's NextEventAt and repositions it in the
// heap — the decrease-key hook for external mutations (an arrival
// submitting work to an idle instance). The timeline calls it
// itself after stepping a process.
//
//valora:hotpath
func (t *Timeline) Refresh(i int) {
	if t.procs[i] == nil {
		return // removed
	}
	at := t.procs[i].NextEventAt()
	t.at[i] = at
	switch {
	case at == Never:
		if t.pos[i] >= 0 {
			t.hremove(i)
		}
	case t.pos[i] < 0:
		t.hpush(i)
	default:
		x := t.pos[i]
		t.hup(x)
		t.hdown(t.pos[i])
	}
}

// hless orders process indices by (cached key, index).
func (t *Timeline) hless(a, b int) bool {
	if t.at[a] != t.at[b] {
		return t.at[a] < t.at[b]
	}
	return a < b
}

// hswap exchanges two heap slots, keeping pos in sync.
func (t *Timeline) hswap(x, y int) {
	t.heap[x], t.heap[y] = t.heap[y], t.heap[x]
	t.pos[t.heap[x]] = x
	t.pos[t.heap[y]] = y
}

// hup sifts slot x toward the root.
//
//valora:hotpath
func (t *Timeline) hup(x int) {
	for x > 0 {
		parent := (x - 1) / 2
		if !t.hless(t.heap[x], t.heap[parent]) {
			return
		}
		t.hswap(x, parent)
		x = parent
	}
}

// hdown sifts slot x toward the leaves.
//
//valora:hotpath
func (t *Timeline) hdown(x int) {
	n := len(t.heap)
	for {
		left := 2*x + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && t.hless(t.heap[right], t.heap[left]) {
			least = right
		}
		if !t.hless(t.heap[least], t.heap[x]) {
			return
		}
		t.hswap(x, least)
		x = least
	}
}

func (t *Timeline) hpush(i int) {
	t.heap = append(t.heap, i)
	t.pos[i] = len(t.heap) - 1
	t.hup(t.pos[i])
}

func (t *Timeline) hremove(i int) {
	x := t.pos[i]
	last := len(t.heap) - 1
	if x != last {
		t.hswap(x, last)
	}
	t.heap = t.heap[:last]
	t.pos[i] = -1
	if x < last {
		t.hup(x)
		t.hdown(t.pos[t.heap[x]])
	}
}

// Run drains the timeline: deliveries and process steps execute in
// global time order until the feed is exhausted and every process is
// idle.
func (t *Timeline) Run() error {
	for {
		proc, procAt := -1, Never
		if len(t.heap) > 0 {
			proc = t.heap[0]
			procAt = t.at[proc]
		}
		if t.Arrivals != nil {
			if at := t.Arrivals.NextAt(); at != Never && (proc < 0 || at <= procAt) {
				t.now = at
				if err := t.Arrivals.Deliver(); err != nil {
					return err
				}
				continue
			}
		}
		if proc < 0 {
			return nil
		}
		t.now = procAt
		progressed, err := t.procs[proc].Step()
		if err != nil {
			return err
		}
		if !progressed {
			// NextEventAt returning Never is the contract for idleness;
			// a process that advertises pending work but cannot step
			// would spin the loop forever.
			return fmt.Errorf("sim: process %d advertised an event at %v but made no progress", proc, procAt)
		}
		t.Refresh(proc)
		if t.AfterStep != nil {
			if err := t.AfterStep(proc); err != nil {
				return err
			}
		}
	}
}
