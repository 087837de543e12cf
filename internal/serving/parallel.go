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
//   - managed: admission + fair-share placement without autoscaling,
//     preemption, or a registry store. While the cluster queue is
//     empty the per-step placement hook is provably a no-op, so the
//     engine runs arrival-to-arrival epochs; the moment the queue
//     holds work, placement may fire after any instance step, the
//     lookahead collapses, and the coordinator steps instances in
//     exact global (time, index) order until the queue drains again.
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
//     autoscaler re-plans after every step, and preemption can requeue
//     across shards mid-step — each makes every instance step a
//     potential coupling point, so the conservative horizon is zero
//     and the proven sequential engine is the correct (and fastest)
//     schedule. Guarding rather than guessing is what keeps the
//     bit-identity contract honest.
//
// Cross-shard preemption requeues are the one coupling the managed
// mode cannot see statically, so sharded managed runs route them
// through the shard outbox (sim.Mailbox) and fail deterministically if
// one ever surfaces — the canonical (time, shard, seq) merge makes the
// failure, like everything else here, independent of goroutine
// interleaving.

// shardMode classifies how densely a run's instances couple.
type shardMode int

const (
	shardSequential shardMode = iota
	shardPartitioned
	shardEpoch
	shardManaged
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
	if c.sched.Store != nil || c.sched.Autoscale != nil {
		return shardSequential
	}
	for _, srv := range c.servers {
		if srv.opts.Preemption != nil {
			return shardSequential
		}
	}
	if c.sched.Lookahead != nil {
		return shardManagedLookahead
	}
	return shardManaged
}

// RunSharded replays a trace like Run, but drives the fleet on shards
// worker goroutines with epoch-barrier synchronization. The report is
// bit-identical to Run's for every configuration: configurations whose
// coupling defeats the conservative lookahead (shared registry store,
// autoscaling, preemption) transparently fall back to the sequential
// engine. Shard counts above the instance count are clamped.
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
	case shardManaged:
		return c.runManagedSharded(trace, shards)
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

// procHome locates one instance inside the shard topology: its shard
// and its shard-local process index (the outbox and feed key).
type procHome struct {
	shard *sim.Shard
	idx   int
}

// buildShards partitions the fleet round-robin across shards. feed,
// when non-nil, supplies each instance's private sim.Feed (pre-routed
// arrivals or lookahead reservations). It returns the group plus each
// instance's home (index-aligned with c.servers).
func (c *Cluster) buildShards(shards int, feed func(i int) sim.Feed) (*sim.ShardGroup, []procHome) {
	shs := make([]*sim.Shard, shards)
	for s := range shs {
		shs[s] = sim.NewShard(s)
	}
	homes := make([]procHome, len(c.servers))
	for i, srv := range c.servers {
		var f sim.Feed
		if feed != nil {
			f = feed(i)
		}
		home := shs[i%shards]
		homes[i] = procHome{shard: home, idx: home.Add(srv, f)}
	}
	return sim.NewShardGroup(shs...), homes
}

// drainAggregate finalizes every instance and folds the per-instance
// reports exactly as the sequential Run does.
func (c *Cluster) drainAggregate() (*Report, error) {
	reports := make([]*Report, len(c.servers))
	for i, srv := range c.servers {
		rep, err := srv.Drain() // already idle: finalizes the report
		if err != nil {
			return nil, err
		}
		reports[i] = rep
	}
	return c.aggregate(reports, fmt.Sprintf("%s x%d [%s]", c.servers[0].Name(), len(c.servers), c.dispatch.Name())), nil
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
	group, _ := c.buildShards(shards, func(i int) sim.Feed {
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
	return c.drainAggregate()
}

// runEpochSharded handles state-dependent dispatch without a cluster
// queue: each arrival time is a coupling point, so shards advance all
// strictly-earlier steps in parallel and the coordinator dispatches at
// the quiesced barrier, observing exactly the sequential engine's
// instance states (all occurrences before t done, none at or after t).
func (c *Cluster) runEpochSharded(trace workload.Trace, shards int) (*Report, error) {
	ordered := arrivalOrder(trace)
	group, _ := c.buildShards(shards, nil)
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
	return c.drainAggregate()
}

// runManagedSharded shards the managed (admission + fair-share) path
// for configurations without autoscaling, preemption, or a registry
// store. The per-step placement hook of the sequential engine
// (Timeline.AfterStep → dispatchQueued) is a no-op whenever the
// cluster queue is empty, so the run alternates between two regimes:
// arrival-to-arrival epochs on the shard workers while the queue is
// empty, and exact global-order stepping by the coordinator while it
// holds work (the conservative horizon collapses to one step). The
// result is bit-identical to runManaged.
func (c *Cluster) runManagedSharded(trace workload.Trace, shards int) (*Report, error) {
	cfg := c.sched
	tq := sched.NewTenantQueue(cfg.FairShare, cfg.Tenants...)

	submitted := make(map[string]int)
	shedByTenant := make(map[string]int)
	shedSLO := make(map[string]int)
	var shedTotal int

	shed := func(r *sched.Request, now time.Duration) {
		r.Phase = sched.PhaseDone
		r.Finish = now
		shedTotal++
		shedByTenant[r.Tenant]++
		if r.Deadline > 0 {
			shedSLO[r.Tenant]++
		}
	}

	group, homes := c.buildShards(shards, nil)
	// The planner guarantees no instance preempts in this mode; the
	// handler routes any requeue that slips through into the proc's
	// outbox so the barrier turns it into a deterministic failure
	// instead of a silent divergence from the sequential engine.
	for i, srv := range c.servers {
		h := homes[i]
		srv := srv
		srv.SetPreemptHandler(func(r *sched.Request) { h.shard.EmitProc(h.idx, srv.Now(), r) })
	}
	guard := func() error {
		if mail := group.DrainOutboxes(); len(mail) > 0 {
			return fmt.Errorf("serving: sharded managed run saw %d cross-shard preemption requeue(s) at t=%v; the coupling planner should have serialized this configuration",
				len(mail), mail[0].At)
		}
		return nil
	}

	var cands []*Server
	dispatchQueued := func(now time.Duration) error {
		tq.ShedExpired(now, func(r *sched.Request) { shed(r, now) })
		for tq.Len() > 0 {
			cands = cands[:0]
			for _, srv := range c.servers {
				if srv.InFlight() < cfg.HighWater {
					cands = append(cands, srv)
				}
			}
			if len(cands) == 0 {
				return nil // backpressure: leave the order revisable in the queue
			}
			r := tq.Pop()
			if r == nil {
				return nil
			}
			if r.Deadline > 0 && now > r.Arrival+r.Deadline {
				shed(r, now)
				continue
			}
			j := c.dispatch.Pick(r, cands)
			if j < 0 || j >= len(cands) {
				return fmt.Errorf("serving: dispatch %s picked instance %d of %d candidates", c.dispatch.Name(), j, len(cands))
			}
			cands[j].Submit(r)
			tq.Charge(r.Tenant, sched.RequestCost(r))
		}
		return nil
	}

	// advanceTo reproduces the sequential schedule up to (not
	// including) horizon: parallel epochs while the queue is empty,
	// global (time, index)-ordered coordinator steps — each followed by
	// the placement hook, exactly like Timeline.AfterStep — while it is
	// not.
	advanceTo := func(horizon time.Duration) error {
		for {
			if tq.Len() == 0 {
				if err := group.AdvanceAll(horizon); err != nil {
					return err
				}
				return guard()
			}
			pick, at := -1, sim.Never
			for j, srv := range c.servers {
				if a := srv.NextEventAt(); a != sim.Never && (pick < 0 || a < at) {
					pick, at = j, a
				}
			}
			if pick < 0 || (horizon != sim.Never && at >= horizon) {
				return nil
			}
			progressed, err := c.servers[pick].Step()
			if err != nil {
				return err
			}
			if !progressed {
				return fmt.Errorf("serving: instance %d advertised an event at %v but made no progress", pick, at)
			}
			if err := guard(); err != nil {
				return err
			}
			if err := dispatchQueued(at); err != nil {
				return err
			}
		}
	}

	handle := func(r *sched.Request, now time.Duration) error {
		submitted[r.Tenant]++
		tq.Touch(r.Tenant) // register even if every request below sheds
		tq.ShedExpired(now, func(x *sched.Request) { shed(x, now) })
		switch {
		case cfg.EstimateService != nil && r.Deadline > 0 && cfg.EstimateService(r) > r.Deadline:
			shed(r, now) // hopeless: no placement can meet the deadline
		case !tq.Push(r):
			shed(r, now) // tenant queue cap: overload isolation
		}
		return dispatchQueued(now)
	}

	ordered := arrivalOrder(trace)
	group.Start()
	defer group.Stop()
	for idx := 0; idx < len(ordered); {
		at := ordered[idx].Arrival
		if err := advanceTo(at); err != nil {
			return nil, err
		}
		for idx < len(ordered) && ordered[idx].Arrival == at {
			if err := handle(ordered[idx], at); err != nil {
				return nil, err
			}
			idx++
		}
	}
	if err := advanceTo(sim.Never); err != nil {
		return nil, err
	}
	group.Stop()
	if tq.Len() > 0 {
		return nil, fmt.Errorf("serving: managed run ended with %d requests stranded in the cluster queue", tq.Len())
	}

	reports := make([]*Report, len(c.servers))
	for i, srv := range c.servers {
		rep, err := srv.Drain()
		if err != nil {
			return nil, err
		}
		reports[i] = rep
	}
	mode := "fifo"
	if cfg.FairShare {
		mode = "fair-share"
	}
	agg := c.aggregate(reports, fmt.Sprintf("%s x%d [%s, %s]", c.servers[0].Name(), len(c.servers), c.dispatch.Name(), mode))
	agg.Requests += shedTotal // shed requests never reached an instance
	agg.Shed = shedTotal
	agg.PeakInstances = len(c.servers)
	c.fillTenantReports(agg, tq, submitted, shedByTenant, shedSLO)
	return agg, nil
}
