package serving

import (
	"fmt"
	"sort"
	"time"

	"valora/internal/sched"
	"valora/internal/sim"
	"valora/internal/workload"
)

// This file is the sharded (multi-timeline) counterpart of
// Cluster.Run: the fleet is partitioned into shard groups, each
// advanced by its own goroutine (sim.Shard/sim.ShardGroup), and
// synchronization happens only at the points that actually couple
// instances. Determinism is the contract: every mode below produces a
// report bit-identical to the sequential engine's, so shard count is
// purely a wall-clock knob and every recorded experiment stays
// reproducible under any parallelism.
//
// The planner (planShards) classifies a run by its coupling density:
//
//   - partitioned: unmanaged fleet, stateless dispatch, no registry
//     store. Routing depends only on the request sequence, so it is
//     precomputed once and each instance's private arrival stream
//     becomes a sim.Feed; shards then run barrier-free to completion.
//     This is the fast path the million-requests stress rides.
//   - epoch: unmanaged fleet whose dispatch reads live instance state
//     (least-loaded, affinity). Arrival times are the only coupling
//     points, so the conservative lookahead horizon is the next
//     arrival: shards advance all strictly-earlier instance steps in
//     parallel, quiesce at the barrier, and the coordinator dispatches
//     the arrivals against exactly the instance states the sequential
//     engine would have observed.
//   - managed-lookahead: the managed path with
//     SchedulingConfig.Lookahead set (an opt-in admission semantics,
//     honoured identically by the sequential engine). Placement is
//     decided only at barriers, where the coordinator reserves up to
//     Slots placements per instance as pre-routed feed deliveries
//     gated on the HighWater bound; epochs stay coarse (Quantum-
//     bounded under backlog) and instances consume their reservations
//     shard-locally, so saturation no longer serializes the run. See
//     lookahead.go.
//   - sequential: every remaining configuration. A shared registry
//     store serializes instances on the remote link model, the
//     autoscaler re-plans after every step, preemption can requeue
//     across shards mid-step, and managed admission without
//     Lookahead may place a request after any instance step — each
//     makes every instance step a potential coupling point, so the
//     conservative horizon is zero and the proven sequential engine is
//     the correct (and fastest) schedule. Guarding rather than
//     guessing is what keeps the bit-identity contract honest.
//
// Cross-shard preemption requeues are the one coupling the lookahead
// mode cannot see statically. NewManagedCluster rejects Lookahead
// with preemption, and the lookahead engine still records any requeue
// that slips through on the instance's feed; the coordinator turns it
// into a deterministic failure at the next barrier.

// shardMode classifies how densely a run's instances couple.
type shardMode int

const (
	shardSequential shardMode = iota
	shardPartitioned
	shardEpoch
	shardManagedLookahead
)

// planShards picks the sharded execution mode for this cluster's
// configuration (see the file comment for the taxonomy).
func (c *Cluster) planShards() shardMode {
	for _, srv := range c.servers {
		if srv.opts.Store != nil {
			// The registry store is shared mutable state touched on the
			// instance step path (resolveTiered): its serialized link
			// model makes fetch order observable, so only the global
			// sequential order reproduces it.
			return shardSequential
		}
	}
	if c.sched == nil {
		if _, ok := c.dispatch.(StatelessDispatch); ok {
			return shardPartitioned
		}
		return shardEpoch
	}
	if c.sched.Lookahead != nil {
		// NewManagedCluster has already rejected Lookahead with
		// Autoscale, a cluster Store or preemption.
		return shardManagedLookahead
	}
	return shardSequential
}

// RunSharded replays a trace like Run, but drives the fleet on shards
// worker goroutines with epoch-barrier synchronization. The report is
// bit-identical to Run's for every configuration: configurations whose
// coupling defeats the conservative lookahead (shared registry store,
// autoscaling, preemption, managed admission without Lookahead)
// transparently fall back to the sequential engine. Shard counts above
// the instance count are clamped.
func (c *Cluster) RunSharded(trace workload.Trace, shards int) (*Report, error) {
	if shards < 1 {
		return nil, fmt.Errorf("serving: shard count %d < 1", shards)
	}
	if shards > len(c.servers) {
		shards = len(c.servers)
	}
	switch c.planShards() {
	case shardPartitioned:
		return c.runPartitioned(trace, shards)
	case shardEpoch:
		return c.runEpochSharded(trace, shards)
	case shardManagedLookahead:
		return c.runManagedLookahead(trace, shards, true)
	default:
		return c.Run(trace)
	}
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

// buildShards partitions the fleet round-robin across shards. feed,
// when non-nil, supplies each instance's private sim.Feed (pre-routed
// arrivals or lookahead reservations).
func (c *Cluster) buildShards(shards int, feed func(i int) sim.Feed) *sim.ShardGroup {
	shs := make([]*sim.Shard, shards)
	for s := range shs {
		shs[s] = sim.NewShard(s)
	}
	for i, srv := range c.servers {
		var f sim.Feed
		if feed != nil {
			f = feed(i)
		}
		shs[i%shards].Add(srv, f)
	}
	return sim.NewShardGroup(shs...)
}

// runPartitioned is the barrier-free fast path: dispatch is replayed
// over the arrival-ordered trace once (stateless policies observe
// nothing else), yielding each instance's exact request subsequence;
// shards then drain their instances to completion with no further
// synchronization. Beyond thread parallelism, each instance runs its
// whole drain without interleaving with the others, so its working set
// stays cache-hot and no per-step global process selection is paid.
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
	group := c.buildShards(shards, func(i int) sim.Feed {
		srv := c.servers[i]
		return &requestFeed{reqs: parts[i], deliver: func(r *sched.Request) error {
			srv.Submit(r)
			return nil
		}}
	})
	group.Start()
	err := group.AdvanceAll(sim.Never)
	group.Stop()
	if err != nil {
		return nil, err
	}
	return c.drainAggregate(len(c.servers), "")
}

// runEpochSharded handles state-dependent dispatch without a cluster
// queue: each arrival time is a coupling point, so shards advance all
// strictly-earlier steps in parallel and the coordinator dispatches at
// the quiesced barrier, observing exactly the sequential engine's
// instance states (all occurrences before t done, none at or after t).
func (c *Cluster) runEpochSharded(trace workload.Trace, shards int) (*Report, error) {
	ordered := arrivalOrder(trace)
	group := c.buildShards(shards, nil)
	group.Start()
	defer group.Stop()
	for idx := 0; idx < len(ordered); {
		at := ordered[idx].Arrival
		if err := group.AdvanceAll(at); err != nil {
			return nil, err
		}
		// All same-time arrivals dispatch at one barrier, in trace
		// order, each Pick observing the previous Submit — the
		// arrival feed's FIFO tie rule.
		for idx < len(ordered) && ordered[idx].Arrival == at {
			r := ordered[idx]
			i := c.dispatch.Pick(r, c.servers)
			if i < 0 || i >= len(c.servers) {
				return nil, fmt.Errorf("serving: dispatch %s picked instance %d of %d", c.dispatch.Name(), i, len(c.servers))
			}
			c.servers[i].Submit(r)
			idx++
		}
	}
	if err := group.AdvanceAll(sim.Never); err != nil {
		return nil, err
	}
	group.Stop()
	return c.drainAggregate(len(c.servers), "")
}
