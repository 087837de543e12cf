package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// The Arrivals cursor must dispatch in exactly the order of the engine
// it replaced, which preloaded every arrival into one time-ordered
// event queue before running (FIFO among equal times) and ran the
// queue's head whenever it was no later than the earliest process.
// refTimeline keeps that engine: the preloaded queue is a stably
// sorted slice, and a linear process scan stands in for the indexed
// heap. The property test drives both with the same randomized
// scenarios and compares their occurrence logs.

// scheduler is what a scenario needs from either engine.
type scheduler interface {
	Refresh(i int)
	Now() time.Duration
}

// refTimeline is the reference engine over preloaded arrivals.
type refTimeline struct {
	arrivals  []arrival // stably sorted by time
	procs     []Process
	now       time.Duration
	afterStep func(i int) error
}

func (r *refTimeline) Refresh(int)        {}
func (r *refTimeline) Now() time.Duration { return r.now }

func (r *refTimeline) Run() error {
	for {
		proc, procAt := -1, Never
		for i, p := range r.procs {
			if at := p.NextEventAt(); at != Never && (proc < 0 || at < procAt) {
				proc, procAt = i, at
			}
		}
		if len(r.arrivals) > 0 && (proc < 0 || r.arrivals[0].at <= procAt) {
			a := r.arrivals[0]
			r.arrivals = r.arrivals[1:]
			r.now = a.at
			if err := a.fn(); err != nil {
				return err
			}
			continue
		}
		if proc < 0 {
			return nil
		}
		r.now = procAt
		progressed, err := r.procs[proc].Step()
		if err != nil {
			return err
		}
		if !progressed {
			return fmt.Errorf("reference: process %d stalled at %v", proc, procAt)
		}
		if err := r.afterStep(proc); err != nil {
			return err
		}
	}
}

// world is one randomized scenario run against one engine. Every
// random draw happens in occurrence order from rng, so two engines
// that dispatch in the same order make the same draws and the same
// log; any divergence shows up in the log.
type world struct {
	rng    *rand.Rand
	s      scheduler
	procs  []*wakeListProc
	log    []string
	budget int // dynamic wakes left, so every run ends
}

// wakeListProc steps once per pending wake time, earliest first.
type wakeListProc struct {
	w     *world
	id    int
	wakes []time.Duration
}

func (p *wakeListProc) NextEventAt() time.Duration {
	if len(p.wakes) == 0 {
		return Never
	}
	return slices.Min(p.wakes)
}

func (p *wakeListProc) Step() (bool, error) {
	if len(p.wakes) == 0 {
		return false, nil
	}
	k := slices.Index(p.wakes, slices.Min(p.wakes))
	p.wakes = slices.Delete(p.wakes, k, k+1)
	w := p.w
	now := w.s.Now()
	w.log = append(w.log, fmt.Sprintf("p%d@%d", p.id, now))
	if w.spend() && w.rng.Intn(4) == 0 {
		w.wake(time.Duration(w.rng.Intn(3)))
	}
	if w.spend() && w.rng.Intn(4) == 0 {
		p.wakes = append(p.wakes, now+time.Duration(w.rng.Intn(3)))
	}
	return true, nil
}

func (w *world) spend() bool {
	if w.budget == 0 {
		return false
	}
	w.budget--
	return true
}

// wake gives a random process work at now+d.
func (w *world) wake(d time.Duration) {
	i := w.rng.Intn(len(w.procs))
	w.procs[i].wakes = append(w.procs[i].wakes, w.s.Now()+d)
	w.s.Refresh(i)
}

func (w *world) deliver(k int) func() error {
	return func() error {
		w.log = append(w.log, fmt.Sprintf("a%d@%d", k, w.s.Now()))
		w.wake(time.Duration(w.rng.Intn(3)))
		if w.spend() && w.rng.Intn(3) == 0 {
			// A wake at now+0 must still follow every arrival at now.
			w.wake(time.Duration(w.rng.Intn(3)))
		}
		return nil
	}
}

func (w *world) afterStep(int) error {
	if w.rng.Intn(5) == 0 {
		w.wake(0)
	}
	return nil
}

func newWorld(seed int64, s scheduler, procs int) *world {
	w := &world{rng: rand.New(rand.NewSource(seed)), s: s, budget: 200}
	for i := 0; i < procs; i++ {
		w.procs = append(w.procs, &wakeListProc{w: w, id: i})
	}
	return w
}

func TestArrivalsMatchPreloadedEventQueue(t *testing.T) {
	for trial := int64(0); trial < 300; trial++ {
		gen := rand.New(rand.NewSource(trial))
		procs := 1 + gen.Intn(4)
		// Unsorted arrival times over a narrow range: many ties.
		ats := make([]time.Duration, 1+gen.Intn(60))
		for i := range ats {
			ats[i] = time.Duration(gen.Intn(20))
		}
		// Procs may start with work already pending.
		initial := make([][]time.Duration, procs)
		for i := range initial {
			for n := gen.Intn(3); n > 0; n-- {
				initial[i] = append(initial[i], time.Duration(gen.Intn(20)))
			}
		}

		ref := &refTimeline{}
		rw := newWorld(trial, ref, procs)
		ref.afterStep = rw.afterStep
		for i, p := range rw.procs {
			p.wakes = slices.Clone(initial[i])
			ref.procs = append(ref.procs, p)
		}
		ref.arrivals = sortedArrivals(ats, rw)
		if err := ref.Run(); err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}

		tl := &Timeline{}
		tw := newWorld(trial, tl, procs)
		tl.AfterStep = tw.afterStep
		for i, p := range tw.procs {
			p.wakes = slices.Clone(initial[i])
			tl.Add(p)
		}
		tl.Arrivals = &arrivalFeed{items: sortedArrivals(ats, tw)}
		if err := tl.Run(); err != nil {
			t.Fatalf("trial %d: timeline: %v", trial, err)
		}

		if !slices.Equal(rw.log, tw.log) {
			t.Fatalf("trial %d: occurrence order diverges\nreference: %v\ntimeline:  %v", trial, rw.log, tw.log)
		}
	}
}

// sortedArrivals returns w's deliveries of the arrivals at ats, stably
// sorted by time.
func sortedArrivals(ats []time.Duration, w *world) []arrival {
	items := make([]arrival, len(ats))
	for k, at := range ats {
		items[k] = arrival{at, w.deliver(k)}
	}
	sort.SliceStable(items, func(a, b int) bool { return items[a].at < items[b].at })
	return items
}
