package serving

import (
	"fmt"
	"sort"
	"time"

	"valora/internal/sched"
	"valora/internal/sim"
	"valora/internal/workload"
)

// This file is the partitioned counterpart of the shared timeline. A
// run whose instances never observe one another is split into
// independent per-instance replays and drained on worker goroutines
// (sim.RunIndependent): Run does so at runtime.GOMAXPROCS(0) workers.
// Every other run takes runTimeline. Either way the report is
// bit-identical to runTimeline's, so the worker count only moves the
// wall clock and every recorded experiment stays reproducible under
// any parallelism.
//
// Instances are independent exactly when the cluster is unmanaged, its
// dispatch is a StatelessDispatch and no instance shares a registry
// store. Routing then depends only on the request sequence, so it is
// precomputed once, one byte per request, and each instance's feed
// walks the shared arrival order picking out its own requests. Any
// other configuration couples instances: dispatch that reads live
// instance state, managed admission placing a request after any
// instance step, the autoscaler, preemption requeues, and a shared
// store whose serialized link model makes fetch order observable.

// maxPartitionedInstances is the widest fleet the partitioned plan
// takes: a route entry is one byte.
const maxPartitionedInstances = 256

// partitioned reports whether the cluster's instances are independent,
// so Run can replay them in parallel (see the file comment).
func (c *Cluster) partitioned() bool {
	if c.sched != nil || len(c.servers) > maxPartitionedInstances {
		return false
	}
	if _, ok := c.dispatch.(StatelessDispatch); !ok {
		return false
	}
	for _, srv := range c.servers {
		if srv.opts.Store != nil {
			return false
		}
	}
	return true
}

// requestFeed adapts an arrival-ordered request stream to sim.Feed: a
// cluster timeline's arrivals, where deliver dispatches or admits. A
// managed run also schedules wakes on it, payload-free times at which
// wake runs: a prefetch completion re-drives placement when its
// adapter turns host-resident. At equal times an arrival goes before a
// wake, and both before any process step.
type requestFeed struct {
	reqs    []*sched.Request
	cur     int
	deliver func(*sched.Request) error
	// wakes holds the pending wake times in ascending order, one per
	// prefetch in flight. Popping copies the list down, so its backing
	// array is reused for the whole run.
	wakes []time.Duration
	wake  func() error
}

// schedule adds a wake at t.
func (f *requestFeed) schedule(t time.Duration) {
	i := len(f.wakes)
	f.wakes = append(f.wakes, t)
	for ; i > 0 && f.wakes[i-1] > t; i-- {
		f.wakes[i] = f.wakes[i-1]
	}
	f.wakes[i] = t
}

// wakeFirst reports whether the wake head is due strictly before the
// arrival head.
func (f *requestFeed) wakeFirst() bool {
	return len(f.wakes) > 0 && (f.cur >= len(f.reqs) || f.wakes[0] < f.reqs[f.cur].Arrival)
}

func (f *requestFeed) NextAt() time.Duration {
	if f.wakeFirst() {
		return f.wakes[0]
	}
	if f.cur >= len(f.reqs) {
		return sim.Never
	}
	return f.reqs[f.cur].Arrival
}

func (f *requestFeed) Deliver() error {
	if f.wakeFirst() {
		copy(f.wakes, f.wakes[1:])
		f.wakes = f.wakes[:len(f.wakes)-1]
		return f.wake()
	}
	r := f.reqs[f.cur]
	f.cur++
	return f.deliver(r)
}

// arrivalOrder returns the trace in the order every engine handles
// it: ascending arrival time, FIFO among ties. Generators emit sorted
// traces, so the common case is a no-op.
func arrivalOrder(trace workload.Trace) workload.Trace {
	// Plain loop rather than sort.SliceIsSorted: the per-element
	// closure call is measurable on million-request traces.
	//
	//valora:hotpath sortedness scan over the full trace
	sorted := true
	for i := 1; i < len(trace); i++ {
		if trace[i].Arrival < trace[i-1].Arrival {
			sorted = false
			break
		}
	}
	if sorted {
		return trace
	}
	out := make(workload.Trace, len(trace))
	copy(out, trace)
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].Arrival < out[j].Arrival
	})
	return out
}

// routedFeed is one instance's arrival stream in the partitioned
// drain: it walks the shared arrival order and delivers only the
// requests routed to inst, skipping the rest.
type routedFeed struct {
	reqs  workload.Trace
	route []uint8
	inst  uint8
	cur   int // next request routed to inst, or len(reqs)
	srv   *Server
}

// seek advances cur to the next request routed to this instance.
//
//valora:hotpath
func (f *routedFeed) seek() {
	for f.cur < len(f.route) && f.route[f.cur] != f.inst {
		f.cur++
	}
}

func (f *routedFeed) NextAt() time.Duration {
	if f.cur >= len(f.reqs) {
		return sim.Never
	}
	return f.reqs[f.cur].Arrival
}

func (f *routedFeed) Deliver() error {
	r := f.reqs[f.cur]
	f.cur++
	f.seek()
	f.srv.Submit(r)
	return nil
}

// runPartitioned replays dispatch over the arrival-ordered trace once
// (stateless policies observe nothing else), recording each request's
// instance in one byte, then drains the instances independently on up
// to workers goroutines.
func (c *Cluster) runPartitioned(trace workload.Trace, workers int) (*Report, error) {
	ordered := arrivalOrder(trace)
	route := make([]uint8, len(ordered))
	for k, r := range ordered {
		i := c.dispatch.Pick(r, c.servers)
		if i < 0 || i >= len(c.servers) {
			return nil, fmt.Errorf("serving: dispatch %s picked instance %d of %d", c.dispatch.Name(), i, len(c.servers))
		}
		route[k] = uint8(i)
	}
	procs := make([]sim.Process, len(c.servers))
	feeds := make([]sim.Feed, len(c.servers))
	for i, srv := range c.servers {
		procs[i] = srv
		f := &routedFeed{reqs: ordered, route: route, inst: uint8(i), srv: srv}
		f.seek()
		feeds[i] = f
		srv.horizon = f.NextAt
	}
	if err := sim.RunIndependent(procs, feeds, workers); err != nil {
		return nil, err
	}
	return c.drainAggregate(len(c.servers), "")
}
