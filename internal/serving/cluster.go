package serving

import (
	"fmt"
	"runtime"
	"time"

	"valora/internal/metrics"
	"valora/internal/sched"
	"valora/internal/sim"
	"valora/internal/trace"
	"valora/internal/workload"
)

// Cluster runs several identical serving instances on one shared
// virtual timeline, the multi-GPU configuration of Table 3. A
// DispatchPolicy routes each request to an instance at its arrival
// time; instance scheduling iterations then interleave in global time
// order (sim.Timeline), so dispatch decisions observe causally
// consistent instance load — the substrate for cluster-level
// scheduling beyond the paper's single-instance scope.
type Cluster struct {
	servers  []*Server
	dispatch DispatchPolicy

	// Managed (SLO-aware) mode, set by NewManagedCluster: sched holds
	// the tenancy/admission/autoscaling configuration and build the
	// options factory the autoscaler uses to grow the fleet. nil sched
	// keeps the original stateless-dispatch behavior exactly.
	sched *SchedulingConfig
	build func(i int) (Options, error)

	// traceRec, when set, is installed on every instance — including
	// ones the autoscaler creates mid-run — so per-request trace capture
	// covers the whole fleet with one shared recorder.
	traceRec *trace.Recorder
}

// SetTraceRecorder installs a shared per-request trace sink on every
// current instance and on any instance the autoscaler adds later.
func (c *Cluster) SetTraceRecorder(rec *trace.Recorder) {
	c.traceRec = rec
	for _, srv := range c.servers {
		srv.SetTraceRecorder(rec)
	}
}

// NewCluster builds n identical instances from an options factory
// (called once per instance so servers do not share mutable state),
// dispatching round-robin. Use NewClusterWithDispatch to choose the
// routing policy.
func NewCluster(n int, build func(i int) (Options, error)) (*Cluster, error) {
	return NewClusterWithDispatch(n, NewRoundRobin(), build)
}

// NewClusterWithDispatch builds a cluster with an explicit dispatch
// policy. build is called once per instance; the Options it returns
// must not share unsynchronised mutable state, because Run may step
// independent instances concurrently.
func NewClusterWithDispatch(n int, dispatch DispatchPolicy, build func(i int) (Options, error)) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("serving: cluster needs at least one instance")
	}
	if dispatch == nil {
		dispatch = NewRoundRobin()
	}
	c := &Cluster{dispatch: dispatch}
	for i := 0; i < n; i++ {
		opts, err := build(i)
		if err != nil {
			return nil, err
		}
		srv, err := NewServer(opts)
		if err != nil {
			return nil, err
		}
		// Stable instance identity: the position at creation, never
		// reused (retired servers stay in the slice). Affinity maps key
		// on it so they survive autoscaler churn.
		srv.id = len(c.servers)
		c.servers = append(c.servers, srv)
	}
	return c, nil
}

// Dispatch reports the routing policy in use.
func (c *Cluster) Dispatch() DispatchPolicy { return c.dispatch }

// Instances exposes the per-instance servers (for per-replica
// inspection in tests and experiments).
func (c *Cluster) Instances() []*Server {
	out := make([]*Server, len(c.servers))
	copy(out, c.servers)
	return out
}

// Run replays a trace across the cluster: arrivals feed a shared
// timeline in arrival order, the dispatch policy routes each to an
// instance, and instance steps interleave in global virtual-time
// order. The aggregate report sums counters across instances, merges
// latency percentile streams, and measures throughput as total
// completions over the longest instance makespan. Managed clusters
// (NewManagedCluster) route arrivals through admission, the
// fair-share queue and the autoscaler instead of dispatching
// statelessly at arrival.
//
// An instance's Step may run a fast-forward window of repeated decode
// iterations (see Server.Step). Run bounds every window by the next
// arrival or prefetch wake on its feed, the earliest time anything
// outside an instance can change its inputs. A managed run installs
// that bound only while the cluster queue is empty and only when no
// instance preempts and no autoscaler is configured: a queued request,
// a preemption or a scaling action can reach an instance after any
// step, so such a run permits no window.
//
// When the instances never observe one another (unmanaged, stateless
// dispatch, no registry store; see parallel.go) Run drains them
// concurrently on runtime.GOMAXPROCS(0) workers, with a report
// bit-identical to the shared timeline's. Instances may therefore step
// on different goroutines: the Options objects the cluster was built
// from must not share unsynchronised mutable state.
func (c *Cluster) Run(trace workload.Trace) (*Report, error) {
	if c.partitioned() {
		return c.runPartitioned(trace, runtime.GOMAXPROCS(0))
	}
	return c.runTimeline(trace)
}

// runTimeline is Run on one shared timeline: every configuration can
// take it, and it is the sequential reference the partitioned drain
// must reproduce.
func (c *Cluster) runTimeline(trace workload.Trace) (*Report, error) {
	if c.sched != nil {
		return c.runManaged(trace)
	}
	tl := &sim.Timeline{}
	tl.Arrivals = &requestFeed{reqs: arrivalOrder(trace), deliver: func(r *sched.Request) error {
		i := c.dispatch.Pick(r, c.servers)
		if i < 0 || i >= len(c.servers) {
			return fmt.Errorf("serving: dispatch %s picked instance %d of %d", c.dispatch.Name(), i, len(c.servers))
		}
		c.servers[i].Submit(r)
		// Submit changes the instance's next-event time; tell the
		// timeline's indexed heap (decrease-key) so an idle instance
		// wakes up for the arrival.
		tl.Refresh(i)
		return nil
	}}
	for _, srv := range c.servers {
		srv.horizon = tl.Arrivals.NextAt
		tl.Add(srv)
	}
	if err := tl.Run(); err != nil {
		return nil, err
	}
	return c.drainAggregate(len(c.servers), "")
}

// drainAggregate finalizes every instance (all already idle) and folds
// the per-instance reports into the cluster report, named after the
// system, the active fleet size n, the dispatch policy and, for managed
// runs, the admission mode.
func (c *Cluster) drainAggregate(n int, mode string) (*Report, error) {
	reports := make([]*Report, len(c.servers))
	for i, srv := range c.servers {
		rep, err := srv.Drain()
		if err != nil {
			return nil, err
		}
		reports[i] = rep
	}
	label := c.dispatch.Name()
	if mode != "" {
		label += ", " + mode
	}
	return c.aggregate(reports, fmt.Sprintf("%s x%d [%s]", c.servers[0].Name(), n, label)), nil
}

// aggregate folds per-instance reports into one cluster report:
// counters sum, latency percentile streams merge, throughput is total
// completions over the longest instance makespan.
func (c *Cluster) aggregate(reports []*Report, system string) *Report {
	agg := &Report{
		System:         system,
		Model:          reports[0].Model,
		ModeIterations: make(map[string]int),
	}
	var latencySum time.Duration
	var tokensOut int
	var hitRate float64
	e2e, ttft, cold := metrics.NewStream(), metrics.NewStream(), metrics.NewStream()
	for i, srv := range c.servers {
		agg.Merge(reports[i])
		latencySum += srv.LatencySum()
		tokensOut += srv.TokensOut()
		e2e.Merge(srv.e2e)
		ttft.Merge(srv.ttft)
		cold.Merge(srv.coldTTFT)
		hitRate += reports[i].PrefixHitRate
	}
	if tokensOut > 0 {
		agg.AvgTokenLatency = float64(latencySum) / float64(time.Millisecond) / float64(tokensOut)
	}
	if agg.SimTime > 0 {
		agg.Throughput = float64(agg.Completed) / agg.SimTime.Seconds()
	}
	agg.E2E = e2e.Summarize()
	agg.TTFT = ttft.Summarize()
	agg.ColdTTFT = cold.Summarize()
	// Unweighted mean across instances: informational in aggregates
	// (per-instance lookup volumes are not part of the report).
	agg.PrefixHitRate = hitRate / float64(len(c.servers))
	return agg
}
