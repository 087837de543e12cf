package serving

import (
	"fmt"
	"sort"
	"time"

	"valora/internal/sched"
	"valora/internal/sim"
	"valora/internal/workload"
)

// This file is the sharded counterpart of Cluster.Run. A run whose
// instances never observe one another is split into independent
// per-instance replays and drained on worker goroutines
// (sim.RunIndependent); every other run is Run itself. Either way the
// report is bit-identical to Run's, so shard count is purely a
// wall-clock knob and every recorded experiment stays reproducible
// under any parallelism.
//
// Instances are independent exactly when the cluster is unmanaged, its
// dispatch is a StatelessDispatch and no instance shares a registry
// store. Routing then depends only on the request sequence, so it is
// precomputed once and each instance's private arrival stream becomes
// a sim.Feed. Any other configuration couples instances: dispatch that
// reads live instance state, managed admission placing a request after
// any instance step, the autoscaler, preemption requeues, and a shared
// store whose serialized link model makes fetch order observable.

// partitioned reports whether the cluster's instances are independent,
// so RunSharded can replay them in parallel (see the file comment).
func (c *Cluster) partitioned() bool {
	if c.sched != nil {
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

// RunSharded replays a trace like Run and returns a bit-identical
// report. When the instances are independent (unmanaged, stateless
// dispatch, no registry store) it drains them on up to shards worker
// goroutines; every other configuration runs Run.
func (c *Cluster) RunSharded(trace workload.Trace, shards int) (*Report, error) {
	if shards < 1 {
		return nil, fmt.Errorf("serving: shard count %d < 1", shards)
	}
	if !c.partitioned() {
		return c.Run(trace)
	}
	return c.runPartitioned(trace, shards)
}

// requestFeed adapts an arrival-ordered request stream to sim.Feed: a
// cluster timeline's arrivals (deliver dispatches or admits), or one
// instance's pre-routed stream (deliver submits).
type requestFeed struct {
	reqs    []*sched.Request
	cur     int
	deliver func(*sched.Request) error
}

func (f *requestFeed) NextAt() time.Duration {
	if f.cur >= len(f.reqs) {
		return sim.Never
	}
	return f.reqs[f.cur].Arrival
}

func (f *requestFeed) Deliver() error {
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

// runPartitioned replays dispatch over the arrival-ordered trace once
// (stateless policies observe nothing else), yielding each instance's
// exact request subsequence, then drains the instances independently
// on up to shards workers.
func (c *Cluster) runPartitioned(trace workload.Trace, shards int) (*Report, error) {
	ordered := arrivalOrder(trace)
	parts := make([][]*sched.Request, len(c.servers))
	for i := range parts {
		parts[i] = make([]*sched.Request, 0, len(trace)/len(c.servers)+1)
	}
	for _, r := range ordered {
		i := c.dispatch.Pick(r, c.servers)
		if i < 0 || i >= len(c.servers) {
			return nil, fmt.Errorf("serving: dispatch %s picked instance %d of %d", c.dispatch.Name(), i, len(c.servers))
		}
		parts[i] = append(parts[i], r)
	}
	procs := make([]sim.Process, len(c.servers))
	feeds := make([]sim.Feed, len(c.servers))
	for i, srv := range c.servers {
		procs[i] = srv
		feeds[i] = &requestFeed{reqs: parts[i], deliver: func(r *sched.Request) error {
			srv.Submit(r)
			return nil
		}}
	}
	if err := sim.RunIndependent(procs, feeds, shards); err != nil {
		return nil, err
	}
	return c.drainAggregate(len(c.servers), "")
}
