package serving

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"valora/internal/atmm"
	"valora/internal/lmm"
	"valora/internal/lora"
	"valora/internal/metrics"
	"valora/internal/registry"
	"valora/internal/sched"
	"valora/internal/sim"
	"valora/internal/simgpu"
	"valora/internal/trace"
	"valora/internal/workload"
)

// Options configure one serving instance.
type Options struct {
	Name  string
	GPU   *simgpu.GPU
	Model lmm.Config

	Policy   sched.Policy
	Operator atmm.Operator
	Switcher lora.Switcher
	Registry *lora.Registry
	// Store, when set, is the tiered adapter-distribution backend: a
	// GPU-pool miss no longer assumes host residency but consults the
	// host cache, and a host miss rides an asynchronous remote fetch
	// while the request waits. Instances of one cluster share a Store
	// (one node's host DRAM and registry link); nil keeps the paper's
	// every-adapter-host-resident behavior exactly.
	Store *registry.Store

	// MaxBatch caps the batch size in requests (MaxBS of Alg. 1).
	MaxBatch int
	// AdmitCap bounds the requests concurrently admitted to the
	// runtime (vLLM-style running set); arrivals beyond it wait in the
	// frontend queue. Bounding work-in-progress keeps the KV cache
	// from thrashing under overload. Default 3×MaxBatch.
	AdmitCap int
	// AdapterPoolBytes is the device budget for resident adapters.
	AdapterPoolBytes int64
	// KVBudgetBytes is the device budget for the KV cache; 0 derives
	// it from what the weights and adapter pool leave free.
	KVBudgetBytes int64
	// PrefixCacheImages enables image-KV reuse when > 0.
	PrefixCacheImages int
	// AsyncSwap overlaps adapter swap-ins with compute (§5).
	AsyncSwap bool
	// ContiguousMemory is the pre-allocated weight layout of §4.4.1.
	ContiguousMemory bool
	// LatencySampleCap is ignored: latency streams are fixed-memory
	// histograms at any sample count.
	//
	// Deprecated: kept only so existing callers still compile.
	LatencySampleCap int
	// Preemption, when set, enables iteration-level preemption: the
	// policy's Decision.Evict victims are displaced from the instance
	// (KV released, recompute on resume) so starving tight-deadline
	// requests get their slots, and KV-pressure victims are chosen
	// deadline-aware. nil (the default) keeps the deadline-blind
	// engine behavior bit-for-bit.
	Preemption *PreemptionConfig
}

// PreemptionConfig shapes iteration-level preemption.
type PreemptionConfig struct {
	// MaxPreemptions is the no-livelock guard: a request displaced this
	// many times becomes Unpreemptable and can never be evicted again,
	// so an adversarial deadline mix cannot bounce a victim between
	// instances forever. Default 2; at most 255, because
	// sched.Request counts displacements in a byte.
	MaxPreemptions int
}

func (p *PreemptionConfig) withDefaults() *PreemptionConfig {
	out := *p
	if out.MaxPreemptions <= 0 {
		out.MaxPreemptions = 2
	}
	return &out
}

func (o *Options) withDefaults() error {
	if o.GPU == nil {
		o.GPU = simgpu.A100()
	}
	if o.Model.Layers == 0 {
		o.Model = lmm.QwenVL7B()
	}
	if o.Policy == nil {
		return fmt.Errorf("serving: Options.Policy is required")
	}
	if o.Operator == nil {
		return fmt.Errorf("serving: Options.Operator is required")
	}
	if o.Switcher == nil {
		return fmt.Errorf("serving: Options.Switcher is required")
	}
	if o.MaxBatch == 0 {
		o.MaxBatch = 32
	}
	if o.AdmitCap == 0 {
		o.AdmitCap = 3 * o.MaxBatch
	}
	if o.AdapterPoolBytes == 0 {
		o.AdapterPoolBytes = 8 << 30
	}
	if o.KVBudgetBytes == 0 {
		free := o.GPU.MemoryBytes - o.Model.WeightBytes - o.AdapterPoolBytes - (4 << 30)
		if free < 1<<30 {
			free = 1 << 30
		}
		o.KVBudgetBytes = free
	}
	if o.Name == "" {
		o.Name = o.Policy.Name()
	}
	if o.Preemption != nil {
		if o.Preemption.MaxPreemptions > math.MaxUint8 {
			return fmt.Errorf("serving: PreemptionConfig.MaxPreemptions %d exceeds %d", o.Preemption.MaxPreemptions, math.MaxUint8)
		}
		o.Preemption = o.Preemption.withDefaults()
	}
	return nil
}

// Server is one simulated GPU serving instance. It is a step-wise
// engine: requests enter through Submit, each Step runs one scheduling
// iteration, or a window of repeated decode iterations (see Step), and
// NextEventAt exposes the instance's place on a virtual timeline so
// several instances can be interleaved in global time order (see
// Cluster and sim.Timeline). Run replays a whole trace as a
// convenience shim over the same primitives.
type Server struct {
	opts     Options
	clock    sim.Clock
	engine   *lmm.Engine
	kv       *lmm.KVCache
	prefix   *lmm.PrefixCache
	pool     *lora.Pool
	state    lora.State
	lastIter time.Duration

	// Request flow: Submit → pending (not yet due) → waiting (arrived,
	// queued at the frontend) → active (admitted work-in-progress).
	// The waiting FIFO is waitBuf[waitHead:] (see waiting): admission
	// walks waitHead past the admitted head instead of moving the
	// backlog, and the slots it walked past are reused by pushWaiting.
	pending  sched.ArrivalQueue
	waitBuf  []*sched.Request
	waitHead int
	active   []*sched.Request

	report     *Report
	e2e        *metrics.Stream
	ttft       *metrics.Stream
	coldTTFT   *metrics.Stream
	latencySum time.Duration
	tokensOut  int

	// traceRec, when installed, receives one trace.Record per completed
	// request (the observe half of the observe–predict–calibrate loop).
	// nil costs nothing on the completion path.
	traceRec *trace.Recorder

	// id is the instance's stable identity within its cluster:
	// assigned once at creation, never reused, unchanged by autoscaler
	// churn. Stateful dispatch policies key their affinity maps on it
	// instead of the (shifting) position in a candidate slice.
	id int

	// tenants accumulates per-tenant completion stats; only populated
	// when requests carry a Tenant label (managed cluster runs), so
	// untenanted traces pay nothing.
	tenants map[string]*tenantStat

	// capacityStalls counts consecutive scheduling rounds in which
	// capacity pressure emptied the batch; bounded by
	// maxCapacityStalls so a configuration deadlock surfaces as an
	// error rather than an infinite Drain.
	capacityStalls int

	// onPreempt, when installed (managed clusters), receives each
	// evicted request for cluster-level re-admission: the request flows
	// back into the fair-share queue with its age and deadline intact
	// and may be re-placed on another instance. nil routes evictions
	// back into this instance's own waiting queue.
	onPreempt func(*sched.Request)
	// stepEvicted collects the requests displaced during the current
	// Step so the active sweep can drop them (reused scratch).
	stepEvicted []*sched.Request

	// Per-iteration scratch, reused across Steps so the scheduling
	// loop stays allocation-free in steady state.
	scratchNeeded []*lora.Adapter
	scratchGroups []lora.TokenGroup
	// cost is the instance's ExtraCost scratch: the operator batch and
	// its per-layer cost memo.
	cost lora.CostScratch
	// scratchAdmit backs the admitted-batch slice admit returns; the
	// result is consumed within the same Step, never retained.
	scratchAdmit []*sched.Request

	// Adapter slots: ingest interns each request's AdapterID into a
	// dense per-instance slot (slotIDs) and stamps it on the request;
	// slots[Request.Slot] holds the adapter's descriptor and its
	// per-iteration marks, so the step path indexes a slice instead of
	// hashing adapter IDs. slots[0] is unused (slot 0 = unstamped).
	// iter numbers the iterations those marks are stamped with.
	slotIDs sched.AdapterSlots
	slots   []adapterSlot
	iter    uint64

	// modeIters counts iterations per lora.Mode; finalize folds it into
	// Report.ModeIterations.
	modeIters [lora.NumModes]int

	// horizon, when a cluster driver installs it, reports the earliest
	// virtual time at which something outside the instance can change
	// its inputs (sim.Never: nothing can): a fast-forward window runs no
	// iteration that starts at or after it. nil, on a standalone server
	// or a live engine, leaves only the instance's own pending arrivals
	// to bound a window. A bound left over from an earlier run can only
	// end windows sooner.
	horizon func() time.Duration
	// last is the load and LoRA cost of the iteration compute last
	// costed: a window repeats them.
	last struct {
		load  lmm.IterationLoad
		extra time.Duration
	}
	// carry is a decision a window asked for but could not repeat;
	// while carried is set, the next Step serves it without asking the
	// policy again. carryBuf backs its slices, which would otherwise
	// alias policy scratch.
	carried  bool
	carry    sched.Decision
	carryBuf []*sched.Request
	// steady marks a window that stopped only at its horizon: the next
	// Step goes on with it instead of serving a full iteration. What
	// reached the instance meanwhile sits in pending, which bounds the
	// window again.
	steady bool
	// lightIters counts the iterations windows ran.
	lightIters int
}

// adapterSlot is one adapter's per-instance state.
type adapterSlot struct {
	// adapter is the registry's descriptor, or a synthesized
	// default-rank one when the instance has no registry entry for it.
	adapter *lora.Adapter
	// seen == iter marks the adapter resolved this iteration; fetching
	// (valid then) that its requests ride a remote fetch.
	seen uint64
	// grouped == iter marks tokens as this iteration's group tally.
	grouped  uint64
	tokens   int
	fetching bool
	// hostOversized marks an adapter larger than the whole host tier:
	// no fetch will ever land it, so its requests are rejected.
	hostOversized bool
	// awaitingFetch marks an adapter whose demand already experienced a
	// host miss on this instance (fetch started, queue-denied, or
	// riding another demand's in-flight fetch). When the fetch lands,
	// the retry's Demand reports StatusHit — that landing is the
	// resolution of the recorded miss, not a fresh host hit, so
	// resolveTiered must not count it (see the HostHitRate inflation
	// bug this replaces).
	awaitingFetch bool
}

// maxCapacityStalls bounds consecutive zero-progress scheduling rounds
// (10 virtual seconds at the 1ms retry quantum) before the engine
// reports a capacity deadlock.
const maxCapacityStalls = 10000

// fetchWaitQuantum caps how far a fetch-blocked instance moves its
// clock per stalled round: long enough to skip most of the 1ms retry
// spin, short enough that work dispatched to the instance meanwhile
// waits at most this long. The jump serves nothing and ignores the
// installed horizon; only a fast-forward window (see Step) runs
// iterations ahead, and it stops before the horizon.
const fetchWaitQuantum = 5 * time.Millisecond

// fastForwardOff switches fast-forward off, so every Step runs at most
// one iteration. Only tests set it: the per-iteration engine is the
// reference a fast-forwarded run must reproduce exactly.
var fastForwardOff bool

// noHorizon is the horizon of a driver under which anything can change
// an instance's inputs at any time: it permits no window.
func noHorizon() time.Duration { return 0 }

// tenantStat is one tenant's per-instance completion accounting; the
// managed cluster merges these across instances into TenantReports.
type tenantStat struct {
	completed int
	rejected  int
	sloMet    int
	sloTotal  int
	// preempted counts evictions charged at the instance that displaced
	// the request; recompute the tokens that will be re-prefilled on
	// resume; preemptedE2E the end-to-end latency of completed requests
	// that were preempted at least once (charged where they finish).
	preempted    int
	recompute    int
	e2e          *metrics.Stream
	preemptedE2E *metrics.Stream
}

// tenantStatOf lazily creates the per-tenant accumulator.
func (s *Server) tenantStatOf(name string) *tenantStat {
	if s.tenants == nil {
		s.tenants = make(map[string]*tenantStat)
	}
	ts, ok := s.tenants[name]
	if !ok {
		ts = &tenantStat{
			e2e:          metrics.NewStream(),
			preemptedE2E: metrics.NewStream(),
		}
		s.tenants[name] = ts
	}
	return ts
}

// SetTraceRecorder installs (or, with nil, removes) the per-request
// trace sink. Each completed request appends one trace.Record; the
// recorder may be shared by many instances (it locks internally) and
// survives the instance that fed it — the HTTP frontend keeps one
// recorder across live-engine recycling.
func (s *Server) SetTraceRecorder(rec *trace.Recorder) { s.traceRec = rec }

// TraceRecorder reports the installed per-request trace sink (nil when
// tracing is off).
func (s *Server) TraceRecorder() *trace.Recorder { return s.traceRec }

// PoolResidentCount reports how many adapters are currently resident
// in the instance's GPU adapter pool (the /metrics residency gauge).
func (s *Server) PoolResidentCount() int { return s.pool.ResidentCount() }

// PoolSwapStats reports the adapter pool's cumulative swap accounting:
// swap-ins, evictions, bytes moved, and time stalled on synchronous
// swaps.
func (s *Server) PoolSwapStats() (swapIns, evictions int, bytes int64, stalled time.Duration) {
	return s.pool.SwapStats()
}

// SetPreemptHandler installs the cluster's re-admission hook: every
// evicted request is handed to it instead of re-entering this
// instance's own waiting queue. Managed clusters route the hook into
// the fair-share TenantQueue.
func (s *Server) SetPreemptHandler(h func(*sched.Request)) { s.onPreempt = h }

// NewServer builds a serving instance.
func NewServer(opts Options) (*Server, error) {
	if err := opts.withDefaults(); err != nil {
		return nil, err
	}
	s := &Server{
		opts:     opts,
		engine:   lmm.NewEngine(opts.GPU, opts.Model),
		kv:       lmm.NewKVCache(opts.Model, opts.KVBudgetBytes),
		prefix:   lmm.NewPrefixCache(opts.PrefixCacheImages),
		pool:     lora.NewPool(opts.GPU, opts.AdapterPoolBytes, opts.AsyncSwap, opts.ContiguousMemory),
		state:    lora.State{Mode: lora.ModeUnmerged, Merged: -1},
		e2e:      metrics.NewStream(),
		ttft:     metrics.NewStream(),
		coldTTFT: metrics.NewStream(),
		slots:    make([]adapterSlot, 1),
	}
	s.report = &Report{
		System:         opts.Name,
		Model:          opts.Model.Name,
		ModeIterations: make(map[string]int),
	}
	return s, nil
}

// slotFor returns adapter id's slot on this instance, interning the
// adapter on first sight. Ingest stamps every request with it.
//
//valora:hotpath
func (s *Server) slotFor(id int) int32 {
	if slot := s.slotIDs.Lookup(id); slot != 0 {
		return slot
	}
	return s.newSlot(id)
}

// newSlot interns an adapter the instance has not seen: its descriptor
// comes from the registry, or is synthesized at the model's default
// rank when no registry entry exists. The descriptor is stable for the
// instance's life, as the pool keys residency off adapter identities.
func (s *Server) newSlot(id int) int32 {
	var a *lora.Adapter
	if s.opts.Registry != nil {
		a, _ = s.opts.Registry.Get(id)
	}
	if a == nil {
		a = &lora.Adapter{ID: id, Name: fmt.Sprintf("lora-%d", id), Rank: s.opts.Model.DefaultRank, Model: s.opts.Model}
	}
	s.slots = append(s.slots, adapterSlot{adapter: a})
	return s.slotIDs.Intern(id)
}

// mergedSlot returns the slot of the adapter the policy chose to
// merge. The merged adapter is normally some batched or active
// request's, so its slot is found without hashing.
func (s *Server) mergedSlot(id int, batch []*sched.Request) int32 {
	for _, reqs := range [2][]*sched.Request{batch, s.active} {
		for _, r := range reqs {
			if r.AdapterID == id {
				return r.Slot
			}
		}
	}
	return s.slotFor(id)
}

// slotCount reports how many adapters the instance has interned.
func (s *Server) slotCount() int { return s.slotIDs.Len() }

// knowsAdapter reports whether the instance has interned id.
func (s *Server) knowsAdapter(id int) bool { return s.slotIDs.Lookup(id) != 0 }

// Submit enqueues a request into the engine. Trace replay submits
// whole traces up front (arrivals in the future are held until due);
// online callers submit with Arrival set to the engine's current
// virtual time (see Now). The request is mutated by the run (runtime
// state), so callers replaying the same workload across systems should
// generate a fresh trace per run.
//
// A decision a fast-forward window carried over was made without r, so
// Submit discards it and the next Step asks the policy afresh.
func (s *Server) Submit(r *sched.Request) {
	s.pending.Push(r)
	s.report.Requests++
	s.carried = false
}

// NextEventAt reports when this instance can next make progress: now
// if it holds runnable work, the earliest pending arrival when it is
// merely waiting for traffic, or sim.Never when fully idle. Cluster
// dispatchers use it to interleave instances in global time order.
func (s *Server) NextEventAt() time.Duration {
	if len(s.active) > 0 || len(s.waiting()) > 0 {
		return s.clock.Now()
	}
	if next := s.pending.Peek(); next != nil {
		if next.Arrival < s.clock.Now() {
			return s.clock.Now()
		}
		return next.Arrival
	}
	return sim.Never
}

// Step executes one scheduling iteration of Algorithm 1's serving
// loop as named stages: ingest, decide, schedulable, residency (and
// swap), the mode switch (after residency: folding needs the weights
// on device), compute and emit. Only Step moves the clock; the stages
// that charge virtual time return it. Step reports whether any
// progress was made; false means the engine is idle.
//
// After a decode-only iteration that finished nothing, Step goes on
// with a fast-forward window (see fastForward): it keeps serving the
// same batch while the policy's decision for each next iteration
// repeats the last one. The window stops before the horizon, the
// earliest time anything outside the instance could change its inputs:
// its own next pending arrival, or the bound its cluster driver
// installs (see Cluster.Run), whichever is earlier. Every virtual
// output is what one iteration per Step would produce.
//
//valora:hotpath
func (s *Server) Step() (bool, error) {
	if s.steady {
		ran, err := s.fastForward(s.active)
		if err != nil || ran > 0 {
			return err == nil, err
		}
		s.steady = false
	}
	now := s.clock.Now()
	s.ingest(now)
	if len(s.active) == 0 {
		next := s.pending.Peek()
		if next == nil {
			return false, nil // idle
		}
		s.clock.AdvanceTo(next.Arrival)
		return true, nil
	}
	batch, target := s.decide(now)
	batch = s.schedulable(batch)
	if len(batch) == 0 {
		// Nothing schedulable (e.g. KV pressure): let time move to
		// the next arrival or retry after a scheduling quantum.
		wake := now + time.Millisecond
		if next := s.pending.Peek(); next != nil && next.Arrival > now {
			wake = next.Arrival
		}
		s.clock.AdvanceTo(wake)
		return true, nil
	}
	batch, fetching, stall, err := s.residency(batch, target.Merged)
	if err != nil {
		return false, err
	}
	s.clock.Advance(stall)
	if target.Merged >= 0 && !s.pool.Resident(target.Merged) {
		// The fold target lost its swap-in: folding absent weights is
		// impossible, so this iteration serves unmerged instead of
		// pretending the adapter was merged.
		target = lora.State{Mode: lora.ModeUnmerged, Merged: -1}
	}
	if len(batch) == 0 {
		// Nothing was hostable: serve the merged cohort, if any, under
		// the current state.
		if fb := s.mergedCohortFallback(); len(fb) > 0 {
			batch, target = fb, s.state
		}
	}
	// Even with nothing servable, an intended mode switch is real
	// progress: it updates the pool's merged adapter, so a stale one
	// whose folded weights were crowding the pool frees its slot for
	// the next round's swap-ins.
	s.clock.Advance(s.switchTo(target))
	if len(batch) == 0 {
		wake, err := s.stalled(fetching)
		if err != nil {
			return false, err
		}
		s.clock.AdvanceTo(wake)
		return true, nil
	}
	s.capacityStalls = 0
	iter, err := s.compute(batch)
	if err != nil {
		return false, err
	}
	s.clock.Advance(iter)
	if err := s.emit(batch, now, s.clock.Now()); err != nil {
		return false, err
	}
	if s.last.load.DecodeSeqs == len(batch) && len(batch) == len(s.active) && !fastForwardOff {
		// Decode-only and nothing finished: the next iteration may
		// repeat this one.
		if _, err := s.fastForward(batch); err != nil {
			return false, err
		}
	}
	return true, nil
}

// ingest moves due arrivals into the frontend queue, stamping their
// adapter slots (and, on standalone store-backed runs, their cold
// starts), then admits waiting requests into the runtime up to the
// work-in-progress cap.
//
//valora:hotpath
func (s *Server) ingest(now time.Duration) {
	for {
		r := s.pending.PopDue(now)
		if r == nil {
			break
		}
		if s.opts.Store != nil && !r.ColdStamped {
			// Standalone (non-managed) runs stamp cold-start arrivals
			// here; managed clusters stamp at admission, before the
			// prefetcher can warm the adapter.
			r.ColdStamped = true
			r.ColdStart = !s.opts.Store.HostResident(r.AdapterID, now)
		}
		r.Slot = s.slotFor(r.AdapterID)
		//valora:allow hotpath -- amortized: the inlined pushWaiting doubles the waiting buffer only when a backlog outgrows it; a steady state slides the queue back instead
		s.pushWaiting(r)
	}
	if k := min(len(s.waiting()), s.opts.AdmitCap-len(s.active)); k > 0 {
		s.admitWaiting(k)
	}
}

// decide asks the policy for the iteration's batch and target mode,
// and with preemption on carries out its displacements.
//
//valora:hotpath
func (s *Server) decide(now time.Duration) ([]*sched.Request, lora.State) {
	var d sched.Decision
	if s.carried {
		d, s.carried = s.carry, false
	} else {
		d = s.opts.Policy.Decide(s.iteration(now))
	}
	batch := d.Batch
	if s.opts.Preemption != nil && len(d.Evict) > 0 {
		batch = s.executeEvictions(batch, d.Evict, d.Admit)
	}
	return batch, lora.State{Mode: d.Mode, Merged: d.Merged}
}

// iteration is the policy's view of the instance at now.
func (s *Server) iteration(now time.Duration) sched.Iteration {
	return sched.Iteration{
		Now:     now,
		Active:  s.active,
		Waiting: s.waiting(),
		State:   s.state,
		MaxBS:   s.opts.MaxBatch,
	}
}

// schedulable narrows a proposed batch to what the KV cache can hold
// this iteration (admit, then ensureKVHeadroom) and sweeps the
// requests those steps rejected or displaced from the active set.
//
//valora:hotpath
func (s *Server) schedulable(batch []*sched.Request) []*sched.Request {
	batch = s.ensureKVHeadroom(s.admit(batch))
	s.sweepActive()
	return batch
}

// residency makes the batch's adapters resident in the GPU pool, and
// the fold target merged even when its cohort missed the batch. Host
// misses ride a remote fetch (see resolveSlot) and their requests sit
// out this iteration; fetching reports that some did. It returns the
// servable batch and the synchronous swap-in stall.
//
//valora:hotpath
func (s *Server) residency(batch []*sched.Request, merged int) ([]*sched.Request, bool, time.Duration, error) {
	s.iter++
	needed := s.scratchNeeded[:0]
	fetching := false
	for _, r := range batch {
		sl := &s.slots[r.Slot]
		needed = s.resolveSlot(sl, needed)
		fetching = fetching || sl.fetching
	}
	if merged >= 0 {
		// A fold target still travelling remote→host is simply absent
		// from the pool, demoting the iteration to unmerged.
		needed = s.resolveSlot(&s.slots[s.mergedSlot(merged, batch)], needed)
	}
	s.scratchNeeded = needed
	stall, err := s.pool.Require(needed, s.lastIter)
	if fetching || err != nil {
		if batch, err = s.dropUnhosted(batch, err); err != nil {
			return nil, false, 0, err
		}
	}
	return batch, fetching, stall, nil
}

// stalled counts a round that served nothing, failing loudly once pool
// and KV capacity deadlock, and returns when to retry. A round blocked
// on remote fetches wakes toward the earliest completion, so the copy
// overlaps the idle gap, but no later than the next local arrival or a
// coarse quantum: in managed clusters future arrivals are timeline
// events this instance cannot see, and an unbounded jump would strand
// a warm request dispatched here "in the past".
//
//valora:hotpath
func (s *Server) stalled(fetching bool) (time.Duration, error) {
	s.capacityStalls++
	if s.capacityStalls > maxCapacityStalls {
		//valora:allow hotpath -- cold path: reached once, when the run fails on a capacity deadlock
		return 0, fmt.Errorf("serving: %s made no progress for %d consecutive scheduling rounds (adapter-pool/KV capacity deadlock)", s.opts.Name, s.capacityStalls)
	}
	now := s.clock.Now()
	wake := now + time.Millisecond
	if s.opts.Store != nil && fetching {
		if done := s.opts.Store.NextFetchDone(); done != sim.Never && done > now {
			done = min(done, now+fetchWaitQuantum)
			if next := s.pending.Peek(); next != nil && next.Arrival > now && next.Arrival < done {
				done = next.Arrival
			}
			wake = max(wake, done)
		}
	}
	return wake, nil
}

// compute builds the iteration's load and LoRA token groups, costs
// them under the current mode and returns the iteration time. The
// group tallies live in the adapter slots, stamped with the iteration.
//
//valora:hotpath
func (s *Server) compute(batch []*sched.Request) (time.Duration, error) {
	var load lmm.IterationLoad
	for _, r := range batch {
		sl := &s.slots[r.Slot]
		if sl.grouped != s.iter {
			sl.grouped, sl.tokens = s.iter, 0
		}
		if !r.PrefillDone {
			shared := s.kv.Shared(r.KV)
			load.PrefillTokens += r.InputTokens - shared
			if shared == 0 {
				load.PrefillImages += int(r.Images)
			}
			sl.tokens += r.InputTokens - shared
		} else {
			load.DecodeSeqs++
			load.ContextTokens += s.kv.Tokens(r.KV)
			sl.tokens++
		}
	}
	// Emit groups in batch first-seen order: ExtraCost folds them
	// commutatively today, but group order must not hinge on that
	// staying true. Clearing each slot's mark as it is emitted keeps
	// the pass O(batch).
	groups := s.scratchGroups[:0]
	for _, r := range batch {
		sl := &s.slots[r.Slot]
		if sl.grouped != s.iter {
			continue // adapter already grouped
		}
		sl.grouped = 0
		groups = append(groups, lora.TokenGroup{AdapterID: r.AdapterID, Rank: sl.adapter.Rank, Tokens: sl.tokens})
	}
	s.scratchGroups = groups

	base := s.engine.IterationTime(load)
	extra, err := lora.ExtraCost(s.opts.Operator, &s.opts.Model, s.state.Mode, s.state.Merged, groups, &s.cost)
	if err != nil {
		return 0, err
	}
	s.last.load, s.last.extra = load, extra
	return s.charge(base, extra), nil
}

// charge books one iteration of base and LoRA time under the current
// mode and returns its duration.
func (s *Server) charge(base, extra time.Duration) time.Duration {
	s.report.BaseTime += base
	s.report.LoRATime += extra
	s.report.Iterations++
	s.modeIters[s.state.Mode]++
	s.lastIter = base + extra
	return s.lastIter
}

// fastForward runs a window of light iterations after a decode-only
// iteration over batch that finished nothing. Each next iteration is a
// repeat when nothing has changed the instance's inputs (no arrival is
// due, nothing waits), the KV cache has a block for every member, no
// member is on its last token, and the policy decides the same batch
// (the whole active set, in order) under the current state without
// displacing anyone. A repeat finds every adapter resident, so the
// full stages reduce to effects a light iteration adds directly: one
// GPU tier hit per resolved adapter when a store is attached, the
// context each decode added, and the last iteration's LoRA cost, which
// depends only on the unchanged groups and state. The policy still
// decides every iteration; a decision that is not a repeat is carried
// into the next Step, which serves it in full at the same virtual time.
//
// The window stops before the horizon: the instance's next pending
// arrival, or the installed bound on outside events, whichever is
// earlier. An iteration starting there could see an arrival or a
// placement that the per-iteration engine would deliver first. A
// window that only the horizon stopped leaves steady set, and the next
// Step goes on with it from the same snapshot: anything that reached
// the instance meanwhile is due in pending and stops it again.
//
//valora:hotpath
func (s *Server) fastForward(batch []*sched.Request) (int, error) {
	s.steady = false
	n := len(batch)
	if len(s.waiting()) > 0 || s.kv.FreeBlocks() < n {
		return 0, nil
	}
	// left is the fewest tokens any member still has to emit; a repeat
	// needs at least two, so the member does not finish.
	left := math.MaxInt
	for i, r := range batch {
		if s.active[i] != r {
			return 0, nil
		}
		left = min(left, r.OutputTokens-r.Emitted)
	}
	horizon := time.Duration(math.MaxInt64)
	if s.horizon != nil {
		if h := s.horizon(); h != sim.Never {
			horizon = h
		}
	}
	if next := s.pending.Peek(); next != nil {
		horizon = min(horizon, next.Arrival)
	}
	hits := 0
	if s.opts.Store != nil {
		hits = len(s.scratchGroups)
		if m := s.state.Merged; m >= 0 && !slices.ContainsFunc(s.scratchGroups, func(g lora.TokenGroup) bool { return g.AdapterID == m }) {
			hits++
		}
	}
	ran := 0
	for ; left > 1; left-- {
		now := s.clock.Now()
		if now >= horizon {
			// Only the horizon stops the window: once the clock
			// passes it and nothing has reached the instance, the
			// next Step can go on where this one stopped.
			s.steady = true
			break
		}
		if s.kv.FreeBlocks() < n {
			break
		}
		d := s.opts.Policy.Decide(s.iteration(now))
		if !s.repeats(d) {
			s.carryOver(d)
			break
		}
		s.last.load.ContextTokens += n
		s.report.GPUTierHits += hits
		s.clock.Advance(s.charge(s.engine.IterationTime(s.last.load), s.last.extra))
		s.lightIters++
		ran++
		for _, r := range s.active {
			r.MarkScheduled(now)
			if err := s.kv.Extend(r.KV); err != nil {
				return ran, err
			}
			r.Emitted++
		}
	}
	return ran, nil
}

// repeats reports whether decision d serves the whole active set, in
// order, under the current state, displacing no one.
//
//valora:hotpath
func (s *Server) repeats(d sched.Decision) bool {
	return d.Mode == s.state.Mode && d.Merged == s.state.Merged &&
		(s.opts.Preemption == nil || len(d.Evict) == 0) &&
		slices.Equal(d.Batch, s.active)
}

// carryOver keeps d for the next Step, copying its slices out of the
// policy's scratch.
func (s *Server) carryOver(d sched.Decision) {
	buf := append(append(append(s.carryBuf[:0], d.Batch...), d.Evict...), d.Admit...)
	s.carryBuf = buf
	nb, ne := len(d.Batch), len(d.Batch)+len(d.Evict)
	s.carry = sched.Decision{Mode: d.Mode, Merged: d.Merged, Batch: buf[:nb:nb], Evict: buf[nb:ne:ne], Admit: buf[ne:]}
	s.carried = true
}

// emit accounts the tokens of an iteration scheduled at now that ended
// at end (prefill also emits the first output token, decode one token
// each) and drops finished requests from the active set.
//
//valora:hotpath
func (s *Server) emit(batch []*sched.Request, now, end time.Duration) error {
	for _, r := range batch {
		r.MarkScheduled(now)
		r.PrefillDone = true
		if err := s.kv.Extend(r.KV); err != nil {
			return err
		}
		r.Emitted++
		if r.Emitted == 1 {
			r.FirstToken = end
			s.ttft.AddDuration(end - r.Arrival)
			if r.ColdStart {
				s.coldTTFT.AddDuration(end - r.Arrival)
				s.report.ColdStarts++
			}
		}
		if r.Done() {
			r.Finish = end
			r.Phase = sched.PhaseDone
			s.finish(r)
		}
	}
	s.sweepActive()
	return nil
}

// resolveSlot runs resolveTiered once per iteration per slot, so the
// batch's requests of one adapter and the fold target share a demand.
func (s *Server) resolveSlot(sl *adapterSlot, needed []*lora.Adapter) []*lora.Adapter {
	if sl.seen == s.iter {
		return needed
	}
	sl.seen = s.iter
	return s.resolveTiered(sl, needed)
}

// resolveTiered resolves one adapter demand through the residency
// tiers: GPU pool first, then (when a store is attached) the host
// cache. It appends the adapter to needed when a GPU swap-in can
// proceed this iteration — already GPU-resident, host-resident, or
// store-less/uncatalogued (always host-resident by assumption) — and
// marks the slot fetching while the adapter is still travelling
// remote→host. Demand misses start the fetch; retries behind an
// in-flight fetch are not re-counted.
//
//valora:hotpath
func (s *Server) resolveTiered(sl *adapterSlot, needed []*lora.Adapter) []*lora.Adapter {
	a := sl.adapter
	sl.fetching = false
	if s.opts.Store == nil {
		return append(needed, a) // host-resident by assumption; no tier accounting
	}
	if s.pool.Resident(a.ID) {
		s.report.GPUTierHits++
		sl.awaitingFetch = false // resident via another path; flag is stale
		return append(needed, a)
	}
	s.report.GPUTierMisses++
	st, eta, queued := s.opts.Store.Demand(a.ID, s.clock.Now())
	switch st {
	case registry.StatusHit:
		// A fetch recorded as this demand's host miss may just have
		// landed; counting its arrival as a host hit would book both a
		// miss and a hit for one demand.
		if !sl.awaitingFetch {
			s.report.HostHits++
		}
		sl.awaitingFetch = false
		return append(needed, a)
	case registry.StatusUncatalogued:
		return append(needed, a)
	case registry.StatusStarted:
		s.report.HostMisses++
		s.report.RemoteFetches++
		// Bytes actually put on the link by this fetch: only the
		// missing (non-deduped) chunks, never the nominal size, so a
		// family sibling's ride on already-resident shared chunks is
		// not double-billed.
		s.report.FetchBytes += queued
	case registry.StatusDenied:
		// Fetch-queue backpressure: the demand retries next round
		// without counting a fresh miss per retry, unless the adapter
		// can never fit the tier.
		sl.hostOversized = eta == sim.Never
	default: // StatusFetching: counted when the fetch started
	}
	sl.awaitingFetch = true
	sl.fetching = true
	return needed
}

// Drain steps the engine until it is idle, then finalizes and returns
// the report. The report accumulates across the server's lifetime, so
// a persistent (online) engine may Drain repeatedly as traffic comes
// and goes.
func (s *Server) Drain() (*Report, error) {
	for {
		progressed, err := s.Step()
		if err != nil {
			return nil, err
		}
		if !progressed {
			break
		}
	}
	s.finalize()
	return s.report, nil
}

// Run replays a trace through the serving loop and reports metrics.
// It is a thin shim over the step-wise API: Submit every request, then
// Drain. The trace's requests are mutated (runtime state); callers
// replaying the same workload across systems should generate a fresh
// trace per run.
func (s *Server) Run(trace workload.Trace) (*Report, error) {
	for _, r := range trace {
		s.Submit(r)
	}
	return s.Drain()
}

// executeEvictions runs the policy's displacement decision and returns
// the batch without its victims: every Evict victim leaves the
// instance (KV released, recompute on resume, re-admission routing),
// and the nominated Admit requests take the freed slots ahead of the
// FIFO admission order — the point of the displacement. The batch and
// active set are scrubbed of victims before residency resolution so a
// displaced adapter is never part of this iteration's working set
// (nothing per-request stays pinned: adapter-pool pins are re-derived
// from the batch each Require, so releasing the slot is enough to
// unpin the victim's adapter).
func (s *Server) executeEvictions(batch, evict, admit []*sched.Request) []*sched.Request {
	for _, r := range evict {
		if r.Unpreemptable || r.Phase == sched.PhaseDone {
			continue // stale decision: the guard always wins
		}
		s.evictOut(r)
	}
	if len(s.stepEvicted) == 0 {
		return batch
	}
	// The policy keeps Evict disjoint from Batch; scrub defensively so
	// a misbehaving policy cannot serve a request it displaced.
	batch = slices.DeleteFunc(batch, func(r *sched.Request) bool { return slices.Contains(s.stepEvicted, r) })
	s.sweepActive()
	for _, w := range admit {
		if len(s.active) >= s.opts.AdmitCap {
			break
		}
		q := s.waiting()
		if i := slices.Index(q, w); i >= 0 {
			q = slices.Delete(q, i, i+1)
			s.waitBuf = s.waitBuf[:s.waitHead+len(q)]
			s.active = append(s.active, w)
		}
	}
	return batch
}

// evictOut displaces one request from the instance: its KV is
// released (prompt plus generated tokens re-prefill on resume), the
// recompute cost is accounted, the no-livelock guard advances, and the
// request is handed back for re-placement — to the cluster's
// re-admission hook when installed (fair-share can then re-place it,
// possibly on another instance), else to this instance's own waiting
// queue. The caller sweeps the active set afterwards (sweepActive).
func (s *Server) evictOut(r *sched.Request) {
	recompute := s.preempt(r)
	r.PreemptCount++
	if int(r.PreemptCount) >= s.opts.Preemption.MaxPreemptions {
		r.Unpreemptable = true
	}
	if r.Tenant != "" {
		ts := s.tenantStatOf(r.Tenant)
		ts.preempted++
		ts.recompute += recompute
	}
	s.stepEvicted = append(s.stepEvicted, r)
	if s.onPreempt != nil {
		// The request leaves this instance's accounting; the cluster
		// re-Submit counts it wherever it lands next. Its policy-epoch
		// scratch marks are meaningless on another instance's policy
		// and must not collide with its epochs.
		r.ClearScratchMarks()
		s.report.Requests--
		s.onPreempt(r)
	} else {
		s.pushWaiting(r)
	}
}

// waiting returns the arrived-but-unadmitted requests, oldest first.
func (s *Server) waiting() []*sched.Request { return s.waitBuf[s.waitHead:] }

// pushWaiting appends r to the waiting queue. When the buffer is full
// and admission has walked past at least half of it, the queue slides
// back to the front instead of growing: the move costs no more than
// the admissions that freed the room, and a steady state allocates
// nothing. Growth past a walked prefix moves only the queue.
func (s *Server) pushWaiting(r *sched.Request) {
	if len(s.waitBuf) == cap(s.waitBuf) && s.waitHead > 0 {
		q := s.waiting()
		if 2*s.waitHead >= len(s.waitBuf) {
			n := copy(s.waitBuf, q)
			clear(s.waitBuf[n:])
			s.waitBuf = s.waitBuf[:n]
		} else {
			s.waitBuf = append(make([]*sched.Request, 0, 2*cap(s.waitBuf)), q...)
		}
		s.waitHead = 0
	}
	s.waitBuf = append(s.waitBuf, r)
}

// admitWaiting moves the k oldest waiting requests into the active
// set. Their slots are cleared so the buffer does not retain them; an
// emptied queue restarts at the front of the buffer.
func (s *Server) admitWaiting(k int) {
	head := s.waitBuf[s.waitHead : s.waitHead+k]
	s.active = append(s.active, head...)
	clear(head)
	s.waitHead += k
	if s.waitHead == len(s.waitBuf) {
		s.waitBuf, s.waitHead = s.waitBuf[:0], 0
	}
}

// sweepActive drops finished and just-displaced requests from the
// active set.
//
//valora:hotpath
func (s *Server) sweepActive() {
	out := s.active[:0]
	evicted := len(s.stepEvicted) > 0
	for _, r := range s.active {
		if r.Phase != sched.PhaseDone && !(evicted && slices.Contains(s.stepEvicted, r)) {
			out = append(out, r)
		}
	}
	s.active = out
	s.stepEvicted = s.stepEvicted[:0]
}

// admit filters a proposed batch down to requests whose KV needs fit,
// allocating prompt KV (with prefix-cache lookups) for requests
// entering prefill. A preempted request re-prefills its prompt plus
// the tokens it already emitted (recompute-style preemption).
func (s *Server) admit(batch []*sched.Request) []*sched.Request {
	out := s.scratchAdmit[:0]
	for _, r := range batch {
		if r.PrefillDone {
			out = append(out, r)
			continue
		}
		if r.KV != 0 {
			out = append(out, r) // already allocated, resuming prefill
			continue
		}
		shared := 0
		if r.ImageID != 0 {
			visual := int(r.Images) * s.opts.Model.VisualTokens
			if visual > r.InputTokens {
				visual = r.InputTokens
			}
			shared = s.prefix.Lookup(r.ImageID, visual)
		}
		ctx := r.InputTokens + r.Emitted
		// A prompt that cannot fit even an empty cache will never be
		// servable on this instance: reject it rather than spin. The
		// prompt's blocks plus the one headroom block ensureKVHeadroom
		// demands per batched request must fit, or a solo request
		// whose allocation consumes every block would be preempted and
		// re-admitted forever.
		need := (ctx - shared + lmm.BlockSize - 1) / lmm.BlockSize
		if need+1 > s.kv.TotalBlocks() {
			s.reject(r)
			continue
		}
		if !s.kv.CanFit(ctx - shared + 1) {
			continue // KV pressure: leave queued
		}
		h, err := s.kv.Allocate(ctx, shared)
		if err != nil {
			continue
		}
		r.KV = h
		out = append(out, r)
	}
	s.scratchAdmit = out
	return out
}

// ensureKVHeadroom guarantees the iteration cannot exhaust the KV
// cache mid-flight: every batched request may claim one fresh block
// for its emitted token. When headroom is short, prefill entrants are
// shed first; if decode-only requests still overflow, the youngest is
// preempted (blocks released, recompute on next schedule) — the
// recompute preemption of vLLM-style engines.
func (s *Server) ensureKVHeadroom(batch []*sched.Request) []*sched.Request {
	for len(batch) > 0 && s.kv.FreeBlocks() < len(batch) {
		shed := s.kvVictim(batch)
		victim := batch[shed]
		if s.opts.Preemption != nil && !victim.Unpreemptable {
			// Displacement instead of in-place recompute: the victim
			// flows back for re-admission (another instance may hold KV
			// headroom this one lacks), and the deadline-aware victim
			// choice keeps KV pressure off tight-deadline requests.
			s.evictOut(victim)
		} else {
			s.preempt(victim)
		}
		batch = append(batch[:shed], batch[shed+1:]...)
	}
	return batch
}

// kvVictim picks which batch member loses its KV when headroom is
// short. The deadline-blind rule (preemption off) sheds the most
// recently admitted prefill entrant, else the last decoding request —
// the historical vLLM-style recompute order. With preemption enabled
// the choice is deadline-aware (sched.LessUrgent, the same ranking
// policy evictions use): the least urgent preemptable member, so
// pressure never lands on the tight deadline preemption is
// protecting; only when every member is unpreemptable does the blind
// rule apply again.
func (s *Server) kvVictim(batch []*sched.Request) int {
	if s.opts.Preemption != nil {
		now := s.clock.Now()
		best := -1
		for i, r := range batch {
			if r.Unpreemptable {
				continue
			}
			if best < 0 || sched.LessUrgent(r, batch[best], now) {
				best = i
			}
		}
		if best >= 0 {
			return best
		}
	}
	for i := len(batch) - 1; i >= 0; i-- {
		if !batch[i].PrefillDone && batch[i].Emitted == 0 {
			return i
		}
	}
	return len(batch) - 1
}

// dropUnhosted strips a batch of requests whose adapters are not
// resident this iteration, given the pool's Require error. Adapters
// larger than the whole host tier or the whole pool
// (CapacityError.Oversized) reject their requests permanently.
// Requests riding a remote fetch, and those whose adapters the
// iteration's pinned working set deferred, stay active for a later
// round. Any other error is returned.
func (s *Server) dropUnhosted(batch []*sched.Request, err error) ([]*sched.Request, error) {
	var oversized, deferred []int
	if err != nil {
		// Declared here, not in the caller, so the pointer the
		// unwrap needs escapes only on a capacity miss.
		var ce *lora.CapacityError
		if !errors.As(err, &ce) {
			return nil, err
		}
		oversized, deferred = ce.Oversized, ce.Deferred
	}
	out := batch[:0]
	for _, r := range batch {
		switch sl := &s.slots[r.Slot]; {
		case sl.hostOversized, slices.Contains(oversized, r.AdapterID):
			s.reject(r)
		case sl.fetching, slices.Contains(deferred, r.AdapterID):
			// Keep queued until the fetch lands or the pool has room.
		default:
			out = append(out, r)
		}
	}
	s.sweepActive()
	return out, nil
}

// switchTo performs a mode switch and returns the switcher's latency.
// It names the merged adapter to the pool, which never evicts it while
// it is folded, so the running mode's weights can never be swapped out
// from under it.
//
//valora:hotpath
func (s *Server) switchTo(target lora.State) time.Duration {
	if target == s.state {
		return 0
	}
	st := s.opts.Switcher.SwitchTime(s.state, target)
	if st > 0 {
		s.report.Switches++
		s.report.SwitchTime += st
	}
	s.pool.Merged = target.Merged
	s.state = target
	return st
}

// mergedCohortFallback is the forward-progress guarantee under
// adapter-pool pressure: when every batched request lost its swap-in
// to the pinned working set, the merged adapter's own cohort is still
// servable (its weights are resident and pinned), and in both merged
// and mixture modes a merged-cohort-only iteration is legal. Serving
// it shrinks the cohort, so the policy eventually re-merges onto the
// starved adapters instead of spinning.
func (s *Server) mergedCohortFallback() []*sched.Request {
	if s.state.Merged < 0 || !s.pool.Resident(s.state.Merged) {
		return nil
	}
	var cohort []*sched.Request
	for _, r := range s.active {
		if r.AdapterID == s.state.Merged {
			cohort = append(cohort, r)
			if len(cohort) == s.opts.MaxBatch {
				break
			}
		}
	}
	return s.schedulable(cohort)
}

// reject permanently fails a request the instance can never serve: a
// KV footprint exceeding the whole cache, or an adapter exceeding the
// whole adapter pool or host tier.
func (s *Server) reject(r *sched.Request) {
	s.releaseKV(r)
	r.Phase = sched.PhaseDone
	r.Finish = s.clock.Now()
	s.report.Rejected++
	if r.Tenant != "" {
		ts := s.tenantStatOf(r.Tenant)
		ts.rejected++
		if r.Deadline > 0 {
			ts.sloTotal++ // a rejected deadline request is a miss
		}
	}
}

// preempt releases a request's KV (recompute-on-resume: the prompt
// plus the tokens generated so far re-prefill when next scheduled) and
// accounts the displacement, returning the recompute cost. It is the
// shared release step of both in-place KV-pressure preemption and
// evictOut's off-instance displacement.
func (s *Server) preempt(r *sched.Request) int {
	recompute := r.Emitted
	if r.PrefillDone {
		recompute += r.InputTokens - s.kv.Shared(r.KV)
	}
	s.releaseKV(r)
	r.PrefillDone = false
	r.Phase = sched.PhaseQueued
	s.report.Preemptions++
	s.report.RecomputeTokens += recompute
	r.RecomputeTokens = int32(min(int(r.RecomputeTokens)+recompute, math.MaxInt32))
	return recompute
}

// releaseKV frees r's KV sequence, if it holds one.
func (s *Server) releaseKV(r *sched.Request) {
	s.kv.Release(r.KV)
	r.KV = 0
}

func (s *Server) finish(r *sched.Request) {
	s.report.Completed++
	lat := r.Latency()
	s.latencySum += lat
	s.tokensOut += r.InputTokens + r.OutputTokens
	s.e2e.AddDuration(lat)
	if r.Deadline > 0 {
		s.report.DeadlineTotal++
		if lat > r.Deadline {
			s.report.DeadlineMisses++
		}
	}
	if r.Tenant != "" {
		ts := s.tenantStatOf(r.Tenant)
		ts.completed++
		ts.e2e.AddDuration(lat)
		if r.PreemptCount > 0 {
			ts.preemptedE2E.AddDuration(lat)
		}
		if r.Deadline > 0 {
			ts.sloTotal++
			if lat <= r.Deadline {
				ts.sloMet++
			}
		}
	}
	if s.traceRec != nil {
		s.traceRec.Append(trace.Record{
			ID:              r.ID,
			Tenant:          r.Tenant,
			Adapter:         r.AdapterID,
			System:          s.opts.Name,
			Instance:        s.id,
			Arrival:         r.Arrival,
			Admission:       r.FirstSchedule,
			FirstToken:      r.FirstToken,
			Finish:          r.Finish,
			InputTokens:     r.InputTokens,
			OutputTokens:    r.OutputTokens,
			SharedTokens:    s.kv.Shared(r.KV),
			Images:          int(r.Images),
			ColdStart:       r.ColdStart,
			Preemptions:     int(r.PreemptCount),
			RecomputeTokens: int(r.RecomputeTokens),
		})
	}
	// Released last: the trace row reads the prompt tokens the prefix
	// cache served from the KV sequence record.
	s.releaseKV(r)
}

func (s *Server) finalize() {
	s.report.SimTime = s.clock.Now()
	for m, n := range s.modeIters {
		if n > 0 {
			s.report.ModeIterations[lora.Mode(m).String()] = n
		}
	}
	if s.tokensOut > 0 {
		s.report.AvgTokenLatency = float64(s.latencySum) / float64(time.Millisecond) / float64(s.tokensOut)
	}
	if s.report.SimTime > 0 {
		s.report.Throughput = float64(s.report.Completed) / s.report.SimTime.Seconds()
	}
	s.report.E2E = s.e2e.Summarize()
	s.report.TTFT = s.ttft.Summarize()
	s.report.ColdTTFT = s.coldTTFT.Summarize()
	swapIns, _, swapBytes, stall := s.pool.SwapStats()
	s.report.SwapIns = swapIns
	s.report.SwapBytes = swapBytes
	s.report.SwapStall = stall
	s.report.PrefixHitRate = s.prefix.HitRate()
}

// Name reports the instance's configured name.
func (s *Server) Name() string { return s.opts.Name }

// InstanceID reports the instance's stable cluster identity (0 for a
// standalone server). Unlike a position in a dispatch candidate
// slice, it never shifts when the autoscaler adds or retires
// replicas.
func (s *Server) InstanceID() int { return s.id }

// Now reports the instance's current virtual time. Online submitters
// stamp request arrivals with it.
func (s *Server) Now() time.Duration { return s.clock.Now() }

// AdvanceClockTo fast-forwards an idle instance's clock (no-op when
// the clock is already past t). The autoscaler calls it when adding an
// instance mid-run: a fresh server's clock starts at 0, and without
// the sync it would serve the queued backlog "in the past", stamping
// completions before the scale-up decision and understating latency.
func (s *Server) AdvanceClockTo(t time.Duration) { s.clock.AdvanceTo(t) }

// InFlight counts requests submitted but not yet finished (pending +
// waiting + admitted); dispatch policies use it as the load signal.
func (s *Server) InFlight() int {
	return s.pending.Len() + len(s.waiting()) + len(s.active)
}

// LatencySum reports the accumulated end-to-end latency of completed
// requests (the numerator of the paper's average-token-latency
// metric).
func (s *Server) LatencySum() time.Duration { return s.latencySum }

// TokensOut reports the accumulated input+output tokens of completed
// requests (the denominator of average token latency).
func (s *Server) TokensOut() int { return s.tokensOut }

// Report finalizes and returns the server's cumulative report. The
// returned report is live: further Steps keep extending it.
func (s *Server) Report() *Report {
	s.finalize()
	return s.report
}
