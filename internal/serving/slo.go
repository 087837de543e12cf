package serving

import (
	"fmt"
	"sort"
	"time"

	"valora/internal/lmm"
	"valora/internal/metrics"
	"valora/internal/registry"
	"valora/internal/sched"
	"valora/internal/sim"
	"valora/internal/simgpu"
	"valora/internal/workload"
)

// AutoscaleConfig shapes the elastic-fleet policy of a managed
// cluster: instances are added while the cluster-level queue stays
// above HighDepth and retired (drained, then removed from the
// timeline) while it stays below LowDepth, with a cooldown between
// scaling actions so the hysteresis band is honoured in virtual time.
type AutoscaleConfig struct {
	// Min and Max bound the active fleet size.
	Min int
	Max int
	// HighDepth/LowDepth are the queue-depth hysteresis thresholds.
	HighDepth int
	LowDepth  int
	// Cooldown is the minimum virtual time between scaling actions.
	Cooldown time.Duration
}

func (a AutoscaleConfig) withDefaults() AutoscaleConfig {
	if a.Min < 1 {
		a.Min = 1
	}
	if a.Max < a.Min {
		a.Max = a.Min
	}
	if a.HighDepth <= 0 {
		a.HighDepth = 64
	}
	if a.LowDepth < 0 || a.LowDepth >= a.HighDepth {
		a.LowDepth = a.HighDepth / 4
	}
	if a.Cooldown <= 0 {
		a.Cooldown = 2 * time.Second
	}
	return a
}

// SchedulingConfig turns a Cluster into a tenant-aware resource
// manager: arrivals pass an admission stage (per-tenant queue caps,
// hopeless-deadline shedding) into a cluster-level TenantQueue, and a
// placement stage dispatches the fair-share pick to an instance with
// headroom (the DispatchPolicy is consulted after the fair-share pick,
// over the instances that can actually accept work).
type SchedulingConfig struct {
	// Tenants declares the service classes (weights, burst credit,
	// queue caps). Requests for undeclared tenants are auto-registered
	// with weight 1.
	Tenants []sched.TenantConfig
	// FairShare selects the deficit-weighted fair-share picker; false
	// degrades to plain FIFO dispatch (the baseline the multi-tenant
	// experiment measures against). Admission and backpressure stay
	// identical in both modes so the comparison isolates the picker.
	FairShare bool
	// HighWater is the per-instance in-flight backpressure bound:
	// requests stay in the cluster queue (where the fair-share order
	// can still be revised) until an instance drops below it. Default
	// 32 (one full batch).
	HighWater int
	// EstimateService, when set, is the admission stage's
	// hopeless-deadline test: a request whose estimated floor service
	// time exceeds its deadline is shed at arrival. See ServiceFloor.
	EstimateService func(*sched.Request) time.Duration
	// Autoscale, when set, lets the run grow and shrink the fleet.
	Autoscale *AutoscaleConfig
	// Store, when set, is the cluster's shared adapter-distribution
	// backend (set the same Store in every instance's Options). The
	// admission stage stamps cold-start arrivals against it and, when
	// PrefetchLookahead > 0, warms the host tier from pending arrivals
	// before they reach an instance, scheduling a wake on the arrival
	// feed at each fetch completion that re-drives placement.
	Store *registry.Store
	// PrefetchLookahead caps the prefetcher's in-flight fetches
	// (0 disables prefetching).
	PrefetchLookahead int
	// FamilyWarm, with a Store and prefetching enabled, warms a
	// family's shared chunk prefix (the tree-structured warm set) once
	// that many distinct arrivals of the family have been observed by
	// the prefetcher. 0 disables family warming.
	FamilyWarm int
}

// ServiceFloor builds an admission-time lower bound on a request's
// service time: its prefill plus its remaining decode rounds, run
// alone on an idle instance. A deadline below this floor cannot be met
// by any placement, so admission sheds the request immediately instead
// of letting it waste queue slots and engine iterations.
func ServiceFloor(g *simgpu.GPU, model lmm.Config) func(*sched.Request) time.Duration {
	eng := lmm.NewEngine(g, model)
	return func(r *sched.Request) time.Duration {
		t := eng.PrefillTime(r.InputTokens, int(r.Images))
		if r.OutputTokens > 1 {
			t += time.Duration(r.OutputTokens-1) * eng.DecodeStepTime(1, r.InputTokens)
		}
		return t
	}
}

// NewManagedCluster builds a tenant-aware cluster: n initial instances
// from the options factory, routed by dispatch within the admission +
// fair-share machinery of cfg. The factory is retained so the
// autoscaler can build additional instances mid-run. Note that
// dispatch policies see only the instances with headroom at each
// placement, so stateful policies keyed on instance position
// (AdapterAffinity) lose their pinning here; round-robin and
// least-loaded compose cleanly.
func NewManagedCluster(n int, dispatch DispatchPolicy, cfg SchedulingConfig, build func(i int) (Options, error)) (*Cluster, error) {
	c, err := NewClusterWithDispatch(n, dispatch, build)
	if err != nil {
		return nil, err
	}
	if cfg.HighWater <= 0 {
		cfg.HighWater = 32
	}
	if cfg.Autoscale != nil {
		as := cfg.Autoscale.withDefaults()
		cfg.Autoscale = &as
	}
	c.build = build
	c.sched = &cfg
	return c, nil
}

// runManaged is the managed counterpart of Run: arrivals pass
// admission into the cluster-level TenantQueue; placement drains the
// queue to instances below the high-water mark whenever an arrival, a
// prefetch completion (a wake on the arrival feed) or an instance step
// changes the picture; the autoscaler adds and retires instances on
// the same timeline.
func (c *Cluster) runManaged(trace workload.Trace) (*Report, error) {
	cfg := c.sched
	tally := newAdmissionTally(cfg)
	tq := tally.tq
	tl := &sim.Timeline{}
	feed := &requestFeed{reqs: arrivalOrder(trace)}
	var prefetch *registry.Prefetcher
	if cfg.Store != nil && cfg.PrefetchLookahead > 0 {
		prefetch = registry.NewPrefetcher(cfg.Store, cfg.PrefetchLookahead)
		prefetch.FamilyWarm = cfg.FamilyWarm
	}

	// Per-instance lifecycle, index-aligned with c.servers and the
	// timeline: draining instances accept no placements; retired ones
	// have been removed from the timeline.
	type instanceState struct{ draining, retired bool }
	state := make([]instanceState, len(c.servers))
	activeCount := len(c.servers)
	peak := activeCount
	var lastScale time.Duration
	scaledYet := false

	var scaleUps, scaleDowns int

	// Preempted requests flow back into the cluster queue as
	// first-class re-admissions: age and deadline intact (EDF re-ranks
	// them by their original urgency), QueueCap bypassed (they already
	// passed admission once), and the placement charge refunded so the
	// fair-share deficit reflects only retained work. The next
	// dispatchQueued — AfterStep runs one after every instance step —
	// re-places them, possibly on another instance.
	requeue := func(r *sched.Request) {
		tq.Requeue(r)
		tq.Refund(r.Tenant, sched.RequestCost(r))
	}
	installPreempt := func(srv *Server) { srv.SetPreemptHandler(requeue) }
	for _, srv := range c.servers {
		installPreempt(srv)
	}

	// Fast-forward bound: while the cluster queue is empty, only the
	// feed (an arrival or a prefetch wake) can place work on an
	// instance, so its next time bounds every window. A queued request
	// may be placed after any instance step, and a preemption or the
	// autoscaler can change the picture at any step, so those runs
	// permit no window.
	horizon := func() time.Duration {
		if tq.Len() > 0 {
			return noHorizon()
		}
		return feed.NextAt()
	}
	for _, srv := range c.servers {
		if cfg.Autoscale != nil || srv.opts.Preemption != nil {
			horizon = noHorizon
		}
	}

	var cands []int
	var candServers []*Server
	dispatchQueued := func(now time.Duration) error {
		// Purge dead requests first, even when no instance has headroom:
		// expired entries must not hold QueueCap slots against fresh,
		// still-serviceable arrivals under full backpressure.
		tally.shedExpired(now)
		for tq.Len() > 0 {
			cands = cands[:0]
			for i, srv := range c.servers {
				if !state[i].draining && !state[i].retired && srv.InFlight() < cfg.HighWater {
					cands = append(cands, i)
				}
			}
			if len(cands) == 0 {
				return nil // backpressure: leave the order revisable in the queue
			}
			r := tq.Pop()
			if r == nil {
				return nil
			}
			ref := tq.Ref(r.Tenant)
			if r.Deadline > 0 && now > r.Arrival+r.Deadline {
				// Expired while queued: dispatching it would burn an
				// instance on a guaranteed SLO miss. Shed without
				// charging the tenant — shed work is not service.
				tally.shedRef(ref, r, now)
				continue
			}
			candServers = candServers[:0]
			for _, i := range cands {
				candServers = append(candServers, c.servers[i])
			}
			j := c.dispatch.Pick(r, candServers)
			if j < 0 || j >= len(candServers) {
				return fmt.Errorf("serving: dispatch %s picked instance %d of %d candidates", c.dispatch.Name(), j, len(candServers))
			}
			gi := cands[j]
			c.servers[gi].Submit(r)
			ref.Charge(sched.RequestCost(r))
			tl.Refresh(gi)
		}
		return nil
	}

	autoscale := func(now time.Duration) error {
		as := cfg.Autoscale
		if as == nil {
			return nil
		}
		// Scale-ups may fire immediately on the first overload; retires
		// pace off lastScale (which starts at 0, so the fleet can shrink
		// from its initial size, but never before one Cooldown passes).
		cooledUp := !scaledYet || now-lastScale >= as.Cooldown
		cooledDown := now-lastScale >= as.Cooldown
		depth := tq.Len()
		switch {
		case depth >= as.HighDepth && activeCount < as.Max && cooledUp:
			opts, err := c.build(len(c.servers))
			if err != nil {
				return err
			}
			srv, err := NewServer(opts)
			if err != nil {
				return err
			}
			srv.AdvanceClockTo(now) // join at cluster time, not t=0
			srv.id = len(c.servers) // stable identity, never reused
			srv.SetTraceRecorder(c.traceRec)
			srv.horizon = horizon
			installPreempt(srv)
			c.servers = append(c.servers, srv)
			state = append(state, instanceState{})
			tl.Add(srv)
			activeCount++
			scaleUps++
			lastScale, scaledYet = now, true
			if activeCount > peak {
				peak = activeCount
			}
		case depth <= as.LowDepth && activeCount > as.Min && cooledDown:
			// Retire the least-loaded active instance (newest on ties)
			// by draining it: no further placements, removed from the
			// timeline once its in-flight work completes.
			pick, best := -1, 0
			for i, srv := range c.servers {
				if state[i].draining || state[i].retired {
					continue
				}
				if load := srv.InFlight(); pick < 0 || load <= best {
					pick, best = i, load
				}
			}
			if pick >= 0 {
				state[pick].draining = true
				activeCount--
				scaleDowns++
				lastScale, scaledYet = now, true
			}
		}
		for i := range state {
			if state[i].draining && !state[i].retired && c.servers[i].InFlight() == 0 {
				tl.Remove(i)
				state[i].retired = true
			}
		}
		return nil
	}

	admit := func(r *sched.Request) error {
		now := tl.Now()
		if cfg.Store != nil && !r.ColdStamped {
			// Stamp cold-start arrivals before the prefetcher can warm
			// their adapter: "cold" means not host-resident at arrival,
			// independent of how fast the fetch then overlaps queueing.
			r.ColdStamped = true
			r.ColdStart = !cfg.Store.HostResident(r.AdapterID, now)
		}
		tally.admit(r, now)
		if r.Phase != sched.PhaseDone && prefetch != nil {
			// Queue-lookahead warming: the arrival is queued ahead of
			// placement, so its remote→host copy overlaps the queueing
			// delay. The completion is a wake on the arrival feed
			// that re-drives placement the moment residency appears.
			if eta, started := prefetch.Observe(r.AdapterID, now); started {
				feed.schedule(eta)
			}
		}
		if err := dispatchQueued(now); err != nil {
			return err
		}
		return autoscale(now)
	}
	tl.AfterStep = func(int) error {
		now := tl.Now()
		if err := dispatchQueued(now); err != nil {
			return err
		}
		return autoscale(now)
	}

	for _, srv := range c.servers {
		srv.horizon = horizon
		tl.Add(srv)
	}
	feed.deliver = admit
	feed.wake = func() error { return dispatchQueued(tl.Now()) }
	tl.Arrivals = feed
	if err := tl.Run(); err != nil {
		return nil, err
	}
	if tq.Len() > 0 {
		return nil, fmt.Errorf("serving: managed run ended with %d requests stranded in the cluster queue", tq.Len())
	}

	mode := "fifo"
	if cfg.FairShare {
		mode = "fair-share"
	}
	agg, err := c.drainAggregate(activeCount, mode)
	if err != nil {
		return nil, err
	}
	agg.Requests += tally.shed // shed requests never reached an instance
	agg.Shed = tally.shed
	agg.PeakInstances = peak
	c.fillTenantReports(agg, tally)
	if cfg.Store != nil {
		// Prefetch traffic belongs to the cluster, not to any single
		// instance: read it off the shared store once. Likewise the
		// chunk and dedup counters.
		st := cfg.Store.Stats()
		agg.PrefetchFetches = st.PrefetchFetches
		agg.PrefetchBytes = st.PrefetchBytes
		agg.ChunkFetches = st.ChunkFetches
		agg.ChunkFetchBytes = st.ChunkFetchBytes
		agg.DedupHits = st.DedupHits
		agg.DedupedBytes = st.DedupedBytes
		agg.ChunkEvictions = st.ChunkEvictions
	}
	agg.ScaleUps = scaleUps
	agg.ScaleDowns = scaleDowns
	return agg, nil
}

// admissionTally is runManaged's admission stage: the cluster-level TenantQueue plus the per-tenant submitted and shed
// counts, kept in a dense slice indexed by sched.TenantRef.Index() so
// each request resolves its tenant name once instead of paying a
// string-keyed map lookup per counter. Shed requests never reach an
// instance, so this tally is their only record.
type admissionTally struct {
	tq       *sched.TenantQueue
	estimate func(*sched.Request) time.Duration
	counts   []tenantCounts
	shed     int
	// dropExpired is the ShedExpired callback, built once: a closure
	// per sweep would allocate on every arrival of a saturated trace.
	dropExpired func(*sched.Request)
	expiredAt   time.Duration
}

type tenantCounts struct{ submitted, shed, shedSLO int }

func newAdmissionTally(cfg *SchedulingConfig) *admissionTally {
	a := &admissionTally{
		tq:       sched.NewTenantQueue(cfg.FairShare, cfg.Tenants...),
		estimate: cfg.EstimateService,
	}
	a.dropExpired = func(r *sched.Request) { a.shedRef(a.tq.Ref(r.Tenant), r, a.expiredAt) }
	return a
}

// countsAt returns tenant idx's counters, growing the slice for
// tenants registered since the last call.
//
//valora:hotpath
func (a *admissionTally) countsAt(idx int) *tenantCounts {
	for len(a.counts) <= idx {
		a.counts = append(a.counts, tenantCounts{})
	}
	return &a.counts[idx]
}

// admit counts an arrival against its tenant (registering the tenant
// even if the request sheds) and queues it, or sheds it as hopeless or
// over its tenant's queue cap. Expired entries are purged before the
// queue-cap check so a dead backlog never crowds out this
// (still-serviceable) arrival.
//
//valora:hotpath
func (a *admissionTally) admit(r *sched.Request, now time.Duration) {
	ref := a.tq.Ref(r.Tenant)
	a.countsAt(ref.Index()).submitted++
	a.shedExpired(now)
	switch {
	case a.estimate != nil && r.Deadline > 0 && a.estimate(r) > r.Deadline:
		a.shedRef(ref, r, now) // hopeless: no placement can meet the deadline
	case !ref.Push(r):
		a.shedRef(ref, r, now) // tenant queue cap: overload isolation
	}
}

// shedExpired sheds every queued request whose deadline passed by now.
func (a *admissionTally) shedExpired(now time.Duration) {
	a.expiredAt = now
	a.tq.ShedExpired(now, a.dropExpired)
}

// shedRef retires r at now without it ever reaching an instance.
//
//valora:hotpath
func (a *admissionTally) shedRef(ref sched.TenantRef, r *sched.Request, now time.Duration) {
	r.Phase = sched.PhaseDone
	r.Finish = now
	a.shed++
	tc := a.countsAt(ref.Index())
	tc.shed++
	if r.Deadline > 0 {
		tc.shedSLO++
	}
}

// fillTenantReports merges per-instance tenant stats with the
// cluster-level admission counters into the aggregate report's
// per-tenant rows, and computes the Jain fairness index over
// weight-normalized service.
func (c *Cluster) fillTenantReports(agg *Report, tally *admissionTally) {
	type acc struct {
		completed, rejected, sloMet, sloTotal int
		preempted, recompute                  int
		e2e                                   *metrics.Stream
		preemptedE2E                          *metrics.Stream
	}
	accs := make(map[string]*acc)
	for _, srv := range c.servers {
		for name, ts := range srv.tenants {
			a, ok := accs[name]
			if !ok {
				a = &acc{e2e: metrics.NewStream(), preemptedE2E: metrics.NewStream()}
				accs[name] = a
			}
			a.completed += ts.completed
			a.rejected += ts.rejected
			a.sloMet += ts.sloMet
			a.sloTotal += ts.sloTotal
			a.preempted += ts.preempted
			a.recompute += ts.recompute
			a.e2e.Merge(ts.e2e)
			a.preemptedE2E.Merge(ts.preemptedE2E)
		}
	}

	// Sum served cost in registration order, not map order: float
	// addition is not associative, and Served() covers exactly the
	// registered tenants.
	served := tally.tq.Served()
	cfgs := tally.tq.Tenants()
	var totalServed float64
	for _, tc := range cfgs {
		totalServed += served[tc.Name]
	}
	// Rows by descending priority, then name. Tenant indices align
	// with the tally's counts; a declared tenant that never saw a
	// request may lie past their end.
	order := make([]int, len(cfgs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := cfgs[order[i]], cfgs[order[j]]
		if a.Priority != b.Priority {
			return a.Priority > b.Priority
		}
		return a.Name < b.Name
	})

	var fairness []float64
	for _, i := range order {
		tc := cfgs[i]
		var n tenantCounts
		if i < len(tally.counts) {
			n = tally.counts[i]
		}
		a := accs[tc.Name]
		if a == nil {
			a = &acc{e2e: metrics.NewStream(), preemptedE2E: metrics.NewStream()}
		}
		tr := TenantReport{
			Name:            tc.Name,
			Priority:        tc.Priority,
			Submitted:       n.submitted,
			Completed:       a.completed,
			Shed:            n.shed,
			Rejected:        a.rejected,
			SLOMet:          a.sloMet,
			SLOTotal:        a.sloTotal + n.shedSLO,
			E2E:             a.e2e.Summarize(),
			Preemptions:     a.preempted,
			RecomputeTokens: a.recompute,
			PreemptedE2E:    a.preemptedE2E.Summarize(),
		}
		if totalServed > 0 {
			tr.ServedShare = served[tc.Name] / totalServed
		}
		if agg.SimTime > 0 {
			tr.Throughput = float64(tr.Completed) / agg.SimTime.Seconds()
		}
		agg.Tenants = append(agg.Tenants, tr)
		if n.submitted > 0 {
			fairness = append(fairness, served[tc.Name]/tc.Weight)
		}
	}
	agg.FairnessIndex = metrics.JainIndex(fairness)
}
