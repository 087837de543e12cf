package serving

import (
	"fmt"
	"time"

	"valora/internal/sched"
	"valora/internal/sim"
	"valora/internal/workload"
)

// Bounded-lookahead admission: the managed engine that stays parallel
// under backlog.
//
// The classic managed engine (runManaged) may place a request after
// any instance step, so every step is a potential coupling point and
// the sharded planner runs it sequentially. The lookahead engine
// removes that coupling by construction: placement is *decided only
// at epoch barriers*. There, with every instance quiesced, the
// coordinator
//
//  1. folds in what the epoch produced (delivery-time sheds), returns
//     unconsumed reservations to the queue position-exactly
//     (TenantQueue.Restore) and refunds their charges,
//  2. replays the epoch's arrivals through admission in exact global
//     order, each at its own timestamp,
//  3. pops the queue in fair-share order and *reserves* up to
//     LookaheadConfig.Slots placements per instance, routing each pop
//     through the DispatchPolicy and parking it in the instance's
//     private reservedFeed.
//
// Mid-epoch, a reservation is consumed the moment its instance drops
// below the HighWater in-flight bound — the same backpressure test
// runManaged's dispatcher applies, evaluated shard-locally by the owning
// worker, so no barrier is needed for it. Since nothing outside an
// instance's own state gates its reservations, instances are
// independent for the whole epoch and the horizon can stay coarse:
// the next arrival while the queue is empty, now+Quantum while it
// holds unreserved work.
//
// This is an opt-in admission semantics (SchedulingConfig.Lookahead),
// not a re-derivation of runManaged: placement revision happens at
// barrier granularity instead of after every instance step. The
// sequential engine honours the same semantics by running this exact
// code on an unstarted ShardGroup (inline advancement), which is what
// makes sharded reports bit-identical to sequential ones by
// construction rather than by argument.

// reservedFeed is one instance's reservation channel: the coordinator
// parks barrier-reserved placements here and the owning shard worker
// delivers them as the instance's in-flight count allows. A
// reservation whose deadline expired before its delivery moment is
// recorded in sheds rather than submitted — delivery moments are
// deterministic virtual times, so the shed set is too — and folded
// into the coordinator's accounting at the next barrier.
//
// requeues and firstRequeueAt record preemption requeues on the
// instance, which NewManagedCluster makes unreachable (it rejects
// Lookahead with preemption); the coordinator fails the run on any it
// finds at a barrier. Like the rest of the feed, they are written only
// by the worker advancing the instance.
type reservedFeed struct {
	srv  *Server
	hw   int
	reqs []*sched.Request
	seqs []uint64
	cur  int
	shed []deliveryShed

	requeues       int
	firstRequeueAt time.Duration
}

type deliveryShed struct {
	req *sched.Request
	at  time.Duration
}

func (f *reservedFeed) push(r *sched.Request, seq uint64) {
	f.reqs = append(f.reqs, r)
	f.seqs = append(f.seqs, seq)
}

// deliverAt is the virtual time the head reservation would ingest at:
// the instance's next occurrence, or its current clock when idle.
func (f *reservedFeed) deliverAt() time.Duration {
	if at := f.srv.NextEventAt(); at != sim.Never {
		return at
	}
	return f.srv.Now()
}

func (f *reservedFeed) NextAt() time.Duration {
	if f.cur >= len(f.reqs) || f.srv.InFlight() >= f.hw {
		return sim.Never
	}
	return f.deliverAt()
}

func (f *reservedFeed) Deliver() error {
	at := f.deliverAt()
	r := f.reqs[f.cur]
	f.reqs[f.cur] = nil
	f.cur++
	if r.Deadline > 0 && at > r.Arrival+r.Deadline {
		f.shed = append(f.shed, deliveryShed{req: r, at: at})
		return nil
	}
	f.srv.Submit(r)
	return nil
}

// reset empties the feed for the next epoch, reusing capacity.
func (f *reservedFeed) reset() {
	f.reqs = f.reqs[:0]
	f.seqs = f.seqs[:0]
	f.cur = 0
}

// runManagedLookahead drives a managed cluster under bounded-lookahead
// admission on shards shard workers; parallel=false keeps the group
// unstarted so the same engine advances inline as the sequential
// reference. See the file comment for the protocol.
func (c *Cluster) runManagedLookahead(trace workload.Trace, shards int, parallel bool) (*Report, error) {
	cfg := c.sched
	la := cfg.Lookahead
	tally := newAdmissionTally(cfg)
	tq := tally.tq

	feeds := make([]*reservedFeed, len(c.servers))
	group := c.buildShards(shards, func(i int) sim.Feed {
		f := &reservedFeed{srv: c.servers[i], hw: cfg.HighWater}
		c.servers[i].SetPreemptHandler(func(*sched.Request) {
			if f.requeues == 0 {
				f.firstRequeueAt = f.srv.Now()
			}
			f.requeues++
		})
		feeds[i] = f
		return f
	})
	// guard turns any requeue that slipped past NewManagedCluster into
	// a deterministic barrier failure instead of a silent divergence:
	// the feeds are scanned in instance order, so the count and the
	// earliest time do not depend on which worker advanced what.
	guard := func() error {
		n, at := 0, time.Duration(0)
		for _, f := range feeds {
			if f.requeues > 0 && (n == 0 || f.firstRequeueAt < at) {
				at = f.firstRequeueAt
			}
			n += f.requeues
		}
		if n > 0 {
			return fmt.Errorf("serving: lookahead run saw %d cross-shard preemption requeue(s) at t=%v; NewManagedCluster should have rejected this configuration",
				n, at)
		}
		return nil
	}

	// collectSheds folds the epoch's delivery-time expiries into the
	// shed accounting and refunds their reservation charges, in
	// instance order (delivery order within an instance).
	collectSheds := func() {
		for _, f := range feeds {
			for _, ds := range f.shed {
				ref := tq.Ref(ds.req.Tenant)
				tally.shedRef(ref, ds.req, ds.at)
				ref.Refund(sched.RequestCost(ds.req))
			}
			f.shed = f.shed[:0]
		}
	}

	// returnUnconsumed hands reservations the epoch did not consume
	// back to the queue position-exactly and refunds their charges, so
	// the barrier's fair-share picture is as if they were never popped.
	returnUnconsumed := func() {
		for _, f := range feeds {
			for k := f.cur; k < len(f.reqs); k++ {
				r := f.reqs[k]
				ref := tq.Ref(r.Tenant)
				ref.Restore(r, f.seqs[k])
				ref.Refund(sched.RequestCost(r))
			}
			f.reset()
		}
	}

	// reserve pops the queue in fair-share order and pre-routes each
	// pick through the dispatch policy into an instance's feed, up to
	// Slots per instance, charging at reservation time so later picks
	// see the deficit the placement will create. Expired picks shed
	// uncharged, exactly like runManaged's dispatcher.
	var cands []*Server
	var candIdx []int
	reserve := func(now time.Duration) error {
		for tq.Len() > 0 {
			cands = cands[:0]
			candIdx = candIdx[:0]
			for i, srv := range c.servers {
				if len(feeds[i].reqs) < la.Slots {
					cands = append(cands, srv)
					candIdx = append(candIdx, i)
				}
			}
			if len(cands) == 0 {
				return nil // every instance holds a full epoch's reservations
			}
			r, seq := tq.PopReserved()
			if r == nil {
				return nil
			}
			ref := tq.Ref(r.Tenant)
			if r.Deadline > 0 && now > r.Arrival+r.Deadline {
				tally.shedRef(ref, r, now)
				continue
			}
			j := c.dispatch.Pick(r, cands)
			if j < 0 || j >= len(cands) {
				return fmt.Errorf("serving: dispatch %s picked instance %d of %d candidates", c.dispatch.Name(), j, len(cands))
			}
			feeds[candIdx[j]].push(r, seq)
			ref.Charge(sched.RequestCost(r))
		}
		return nil
	}

	ordered := arrivalOrder(trace)
	if parallel {
		group.Start()
		defer group.Stop()
	}
	idx := 0
	now := time.Duration(0)
	for {
		// Barrier: the group is quiesced, the coordinator owns all state.
		collectSheds()
		returnUnconsumed()
		if err := guard(); err != nil {
			return nil, err
		}
		for idx < len(ordered) && ordered[idx].Arrival <= now {
			tally.admit(ordered[idx], ordered[idx].Arrival)
			idx++
		}
		tally.shedExpired(now)
		if err := reserve(now); err != nil {
			return nil, err
		}
		// Horizon: while the queue still holds unreserved work the epoch
		// is Quantum-bounded (arrivals landing mid-epoch are replayed at
		// the next barrier); with an empty queue the next arrival is the
		// only coupling point; with neither, drain to completion.
		horizon := sim.Never
		if tq.Len() > 0 {
			horizon = now + la.Quantum
		} else if idx < len(ordered) {
			horizon = ordered[idx].Arrival
		}
		if err := group.AdvanceAll(horizon); err != nil {
			return nil, err
		}
		if horizon == sim.Never {
			break
		}
		now = horizon
	}
	collectSheds()
	if err := guard(); err != nil {
		return nil, err
	}
	if tq.Len() > 0 {
		return nil, fmt.Errorf("serving: lookahead run ended with %d requests stranded in the cluster queue", tq.Len())
	}
	for i, f := range feeds {
		if f.cur < len(f.reqs) {
			return nil, fmt.Errorf("serving: lookahead run ended with %d reservations undelivered on instance %d", len(f.reqs)-f.cur, i)
		}
	}

	return c.managedReport(tally, len(c.servers), len(c.servers))
}
