// Package sched contains the request model and the scheduling
// policies of the VaLoRA reproduction: the credit-based Algorithm 1
// (merge / mixture / unmerge selection) and the baseline policies it
// is evaluated against (merge-only, unmerge-only FCFS as in
// S-LoRA/Punica, and dLoRA's workload-driven mode switching).
package sched

import (
	"fmt"
	"time"

	"valora/internal/idtab"
	"valora/internal/lmm"
	"valora/internal/lora"
	"valora/internal/train"
)

// AppType distinguishes the two vision applications of the evaluation
// (§6.1): latency-tolerant visual retrieval and real-time video
// analytics.
type AppType uint8

const (
	VisualRetrieval AppType = iota
	VideoAnalytics
)

func (a AppType) String() string {
	if a == VideoAnalytics {
		return "video-analytics"
	}
	return "visual-retrieval"
}

// Phase tracks a request through its lifetime.
type Phase uint8

const (
	PhaseQueued Phase = iota
	PhaseRunning
	PhaseDone
)

// Request is one inference request flowing through the system.
// Million-request traces hold one per request, so the fields are
// chosen for size: ImageID and RecomputeTokens share one word, and
// Images, PreemptCount, the one-byte enums and the flags fill the last
// 16 bytes with Slot. Request is 144 bytes, exactly Go's 144-byte
// size class, and TestRequestSize holds it there: the per-request
// latency parts, or any other field, would move it to the 160-byte
// class and cost 16 bytes on every request.
type Request struct {
	ID        int64
	AdapterID int

	// Tenant names the service class the request belongs to ("" =
	// untenanted legacy traffic, which bypasses the fair-share layer).
	// Tenant priority and weight live in TenantConfig.
	Tenant string

	InputTokens  int
	OutputTokens int // decode rounds the answer needs (head-dependent)
	// ImageID is the image's identity for prefix caching (0 = unique).
	ImageID uint32
	// RecomputeTokens accumulates the already-computed tokens that
	// preemptions threw away (prompt plus emitted tokens re-prefilled on
	// resume) — per-request observability for trace capture, summed
	// across instances when a request migrates. Each preemption throws
	// away at most a context that fit the KV cache, and displacements
	// stop at MaxPreemptions (at most 255), so int32 holds their sum.
	// In-place recompute preemptions have no count bound, so the
	// serving layer saturates the sum at math.MaxInt32.
	RecomputeTokens int32

	Arrival time.Duration
	// Deadline is the application's latency budget (0 = best effort).
	Deadline time.Duration

	// Runtime state, owned by the server.
	Emitted       int
	FirstSchedule time.Duration
	LastSchedule  time.Duration
	FirstToken    time.Duration
	Finish        time.Duration
	// KV names the request's KV-cache sequence on its current instance
	// (zero while none is allocated). The sequence record also holds
	// the prompt tokens the prefix cache served (KVCache.Shared).
	KV lmm.SeqHandle

	// mark tags the request for the VaLoRAPolicy call currently
	// deciding (an epoch mark instead of a per-call set keeps Decide
	// allocation-free): epoch<<1 for a member of the batch being
	// assembled, epoch<<1|1 for a request already chosen as an
	// eviction victim this round, so two urgent requesters never claim
	// the same victim. One word serves both because victims are drawn
	// only from requests outside the batch, and requests live on
	// exactly one server, so a single mark per request suffices.
	mark uint64

	// Slot is the dense per-instance index of AdapterID, stamped by the
	// serving instance when the request arrives there (0 = unstamped).
	// Per-iteration adapter bookkeeping indexes slices by it instead of
	// hashing the ID; slot numbering differs between instances, so
	// ClearScratchMarks resets it when a request migrates.
	Slot int32

	// Images counts the prompt's images, VisualTokens each (the
	// OpenAI frontend caps it well below the uint16 range).
	Images uint16
	// PreemptCount records how many times the request has been evicted
	// from an instance mid-service (see Unpreemptable). The serving
	// layer rejects a MaxPreemptions above 255, so the count stops
	// before it could wrap.
	PreemptCount uint8

	App   AppType
	Task  train.TaskType
	Head  train.HeadKind
	Phase Phase

	// Unpreemptable is the no-livelock guard: once the serving layer's
	// MaxPreemptions bound is reached the request can never be
	// displaced again, so an adversarial deadline mix cannot bounce a
	// victim between instances forever.
	Unpreemptable bool
	PrefillDone   bool
	// ColdStart marks a request that arrived while its adapter was not
	// host-resident (a remote fetch stands between it and its first
	// token); ColdStamped records that the residency check ran, so the
	// admission stage and the instance ingest stamp each request
	// exactly once. Registry-backed runs only; both stay false
	// otherwise.
	ColdStart     bool
	ColdStamped   bool
	scheduledOnce bool
}

func (r *Request) String() string {
	return fmt.Sprintf("req %d (%s, adapter %d, in %d, out %d)",
		r.ID, r.App, r.AdapterID, r.InputTokens, r.OutputTokens)
}

// Done reports whether the request has emitted all its tokens.
func (r *Request) Done() bool { return r.Emitted >= r.OutputTokens }

// MarkScheduled updates bookkeeping when the request enters a batch.
func (r *Request) MarkScheduled(now time.Duration) {
	if !r.scheduledOnce {
		r.FirstSchedule = now
		r.scheduledOnce = true
	}
	r.LastSchedule = now
	r.Phase = PhaseRunning
}

// Credit is the starvation measure of Algorithm 1: time since the
// request was last served (or since arrival if never served), plus the
// execution and switch latency it would still have to absorb.
func (r *Request) Credit(now, estExec, switchLat time.Duration) time.Duration {
	ref := r.Arrival
	if r.scheduledOnce {
		ref = r.LastSchedule
	}
	wait := now - ref
	if wait < 0 {
		wait = 0
	}
	return wait + estExec + switchLat
}

// Latency reports end-to-end latency once finished.
func (r *Request) Latency() time.Duration { return r.Finish - r.Arrival }

// Slack reports the time remaining until the request's absolute
// deadline (negative once the deadline has passed). Best-effort
// requests (Deadline 0) have no slack notion; callers must check
// Deadline > 0 first.
func (r *Request) Slack(now time.Duration) time.Duration {
	return r.Arrival + r.Deadline - now
}

// ResetRuntime clears every field the serving layer mutates during a
// run, returning the request to its as-generated state so one trace
// can be replayed repeatedly (median-of-N wall-clock benchmarking of
// identical virtual runs without regenerating — and re-allocating —
// multi-million-request traces). Identity and workload shape (ID,
// adapter, tokens, arrival, deadline, tenant) are untouched.
func (r *Request) ResetRuntime() {
	r.PreemptCount = 0
	r.Unpreemptable = false
	r.RecomputeTokens = 0
	r.Phase = PhaseQueued
	r.PrefillDone = false
	r.ColdStart = false
	r.ColdStamped = false
	r.Emitted = 0
	r.FirstSchedule = 0
	r.LastSchedule = 0
	r.FirstToken = 0
	r.Finish = 0
	r.scheduledOnce = false
	r.KV = 0
	r.ClearScratchMarks()
}

// ClearScratchMarks zeroes the per-instance marks: the policy's epoch
// mark and the adapter slot. Both are meaningful only relative to one
// instance ("requests live on exactly one server"), so the serving
// layer calls this when a preempted request migrates to another
// instance — a stale mark must never collide with the destination
// policy's epochs, and the destination numbers its slots itself.
func (r *Request) ClearScratchMarks() {
	r.mark = 0
	r.Slot = 0
}

// AdapterSlots interns adapter IDs into dense 1-based slots, in order
// of first sight. Slot 0 is never issued, so a zero Request.Slot reads
// as unstamped. The IDs sit in an idtab.Table: IDs below
// idtab.DenseIDs, every ID the experiments use, resolve through a
// slice; the rest (any non-negative ID can arrive over HTTP) through a
// map.
type AdapterSlots struct {
	ids idtab.Table[int32]
}

// Lookup reports id's slot, or 0 when id has none yet.
func (t *AdapterSlots) Lookup(id int) int32 { return t.ids.Get(id) }

// Intern returns id's slot, issuing the next one on first sight.
func (t *AdapterSlots) Intern(id int) int32 {
	s := t.ids.Get(id)
	if s == 0 {
		s = int32(t.ids.Len() + 1)
		t.ids.Set(id, s)
	}
	return s
}

// Len reports how many slots have been issued.
func (t *AdapterSlots) Len() int { return t.ids.Len() }

// Stamp sets each request's Slot from its AdapterID, interning IDs on
// first sight: what a serving instance does at ingest.
func (t *AdapterSlots) Stamp(reqs ...*Request) {
	for _, r := range reqs {
		r.Slot = t.Intern(r.AdapterID)
	}
}

// LessUrgent orders preemption victims (shared by policy-driven
// eviction and KV-pressure victim selection so the two can never
// disagree about urgency): best-effort before deadline-carrying; among
// best-effort the fewest emitted tokens (cheapest recompute), then the
// latest arrival; among deadline carriers the loosest slack first.
func LessUrgent(a, b *Request, now time.Duration) bool {
	ab, bb := a.Deadline <= 0, b.Deadline <= 0
	if ab != bb {
		return ab
	}
	if ab {
		if a.Emitted != b.Emitted {
			return a.Emitted < b.Emitted
		}
		return a.Arrival > b.Arrival
	}
	return a.Slack(now) > b.Slack(now)
}

// Iteration is the scheduling context a Policy sees each round: the
// engine's virtual time, the admitted work-in-progress set, the
// arrived-but-unadmitted backlog, the runtime's current adapter state
// and the batch cap. Deadline-blind policies read Now/Active/State/
// MaxBS exactly as the positional Decide signature used to pass them;
// deadline-aware policies additionally inspect each request's
// Deadline and the Waiting backlog to produce displacement
// decisions (Decision.Evict/Admit).
type Iteration struct {
	Now    time.Duration
	Active []*Request
	// Waiting holds requests that have arrived at the instance but sit
	// outside the admitted set (AdmitCap backpressure). They cannot be
	// batched this round; a preemptive policy may nominate them for
	// admission by displacing active requests.
	Waiting []*Request
	State   lora.State
	MaxBS   int
}

// Decision is a policy's output for one iteration.
type Decision struct {
	Mode   lora.Mode
	Merged int // adapter to (keep) merged; -1 when unmerged
	Batch  []*Request
	// Evict names active requests the policy wants displaced from the
	// instance this round: their KV is released and they are handed
	// back to the cluster for re-placement (recompute on resume). The
	// policy guarantees Evict is disjoint from Batch and contains no
	// Unpreemptable request; engines without preemption enabled ignore
	// it. Like Batch, the slice aliases policy scratch and is valid
	// until the next Decide call.
	Evict []*Request
	// Admit names Waiting requests whose admission the evictions make
	// room for (the starving tight-deadline requests that motivated the
	// displacement). The engine moves them into the active set ahead of
	// the FIFO admission order.
	Admit []*Request
	// Hold is how long the decision holds: asked again with the same
	// Active in the same order and the same Waiting, State and MaxBS,
	// at a later Now at which every active request was last scheduled
	// at most Hold earlier, Decide returns this same decision. Zero
	// promises nothing. An engine may serve a held decision again
	// without asking; a wrapper that returns the inner decision
	// forwards its Hold with it.
	Hold time.Duration
}

// holdForever is the Hold of the baseline policies' decisions: they
// read no time, so a decision holds for as long as its inputs do.
const holdForever = time.Duration(1<<63 - 1)

// Policy selects the batch and inference mode for the next iteration.
type Policy interface {
	Name() string
	// Decide picks the next batch (and, for preemptive policies, the
	// eviction/admission sets) from the iteration context.
	Decide(it Iteration) Decision
}

// cohorts tallies per-adapter request counts over an active set in a
// slice indexed by adapter slot (Request.Slot). Counts are
// epoch-stamped: a count from an older call reads as zero, so the
// slice never needs clearing and a tally builds no map.
type cohorts struct {
	epoch  uint64
	counts []cohortCount
	// slots stamps requests that reach a policy without an instance's
	// slot (direct callers); serving instances stamp at ingest.
	slots AdapterSlots
}

// cohortCount is one adapter's epoch-stamped request count.
type cohortCount struct {
	epoch uint64
	n     int
}

// count tallies the active set and returns the dominant adapter under
// the deterministic tie rules (prefer the currently merged adapter,
// then the lower ID) together with its count, and the currently
// merged adapter's count. best is -1 for an empty set.
func (c *cohorts) count(active []*Request, cur lora.State) (best, bestCount, curCount int) {
	c.epoch++
	best = -1
	for _, r := range active {
		if r.Slot == 0 {
			c.slots.Stamp(r)
		}
		for int(r.Slot) >= len(c.counts) {
			c.counts = append(c.counts, cohortCount{})
		}
		cc := &c.counts[r.Slot]
		if cc.epoch != c.epoch {
			cc.epoch, cc.n = c.epoch, 0
		}
		cc.n++
		id, n := r.AdapterID, cc.n
		if id == cur.Merged {
			curCount = n
		}
		switch {
		case n > bestCount:
			best, bestCount = id, n
		case n == bestCount:
			if id == cur.Merged || (best != cur.Merged && id < best) {
				best = id
			}
		}
	}
	return best, bestCount, curCount
}

// mostCommon returns the adapter with the most active requests and
// those requests (in active order), under count's tie rules.
func (c *cohorts) mostCommon(active []*Request, cur lora.State) (int, []*Request) {
	best, n, _ := c.count(active, cur)
	if best < 0 {
		return -1, nil
	}
	reqs := make([]*Request, 0, n)
	for _, r := range active {
		if r.AdapterID == best {
			reqs = append(reqs, r)
		}
	}
	return best, reqs
}
