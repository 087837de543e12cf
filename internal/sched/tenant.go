package sched

import (
	"math"
	"time"
)

// TenantConfig declares one tenant's service class for the fair-share
// layer — the quota shape of KAI-Scheduler's queues collapsed onto a
// single resource (serving work, measured in tokens).
type TenantConfig struct {
	// Name identifies the tenant; requests carry it in Request.Tenant.
	Name string
	// Weight is the tenant's guaranteed share of cluster capacity
	// relative to the other tenants' weights (KAI's "deserved" quota).
	// A tenant whose consumed share is below weight/Σweights of the
	// total served work holds unspent quota and is dispatched before
	// any over-quota tenant.
	Weight float64
	// Burst weights over-quota service (KAI's over-quota priority):
	// when every pending tenant has exhausted its guaranteed quota,
	// spare capacity is divided in proportion to Burst.
	Burst float64
	// QueueCap bounds the tenant's queued-but-undispatched requests;
	// admission sheds beyond it (0 = unlimited).
	QueueCap int
	// Priority annotates the service class (reporting / tie-breaking
	// metadata; capacity shares come from Weight and Burst).
	Priority int
}

func (c TenantConfig) withDefaults() TenantConfig {
	if c.Weight <= 0 {
		c.Weight = 1
	}
	if c.Burst <= 0 {
		c.Burst = c.Weight
	}
	return c
}

// RequestCost is the work proxy the fair-share accounting charges per
// dispatched request: total tokens moved through the engine. Prompt
// and decode tokens cost the engine very different amounts of time,
// but as a deficit currency only relative magnitude matters.
func RequestCost(r *Request) float64 {
	return float64(r.InputTokens + r.OutputTokens)
}

// tenantItem is one queued request with its submission stamp.
type tenantItem struct {
	req *Request
	seq uint64
}

// tenantState is one tenant's runtime state inside a TenantQueue.
type tenantState struct {
	cfg TenantConfig
	idx int
	// h is a min-heap over the tenant's queued requests: earliest
	// absolute deadline first (EDF), best-effort requests after every
	// deadline-carrying one, FIFO among equals.
	h []tenantItem
	// served is the cost charged to this tenant so far.
	served float64
}

// dueAt is the EDF key: the absolute deadline, or +Inf-like sentinel
// for best-effort requests so they sort after all deadlines.
func dueAt(r *Request) time.Duration {
	if r.Deadline <= 0 {
		return time.Duration(math.MaxInt64)
	}
	return r.Arrival + r.Deadline
}

func (t *tenantState) less(i, j int) bool {
	di, dj := dueAt(t.h[i].req), dueAt(t.h[j].req)
	if di != dj {
		return di < dj
	}
	if t.h[i].req.Arrival != t.h[j].req.Arrival {
		return t.h[i].req.Arrival < t.h[j].req.Arrival
	}
	return t.h[i].seq < t.h[j].seq
}

func (t *tenantState) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !t.less(i, parent) {
			break
		}
		t.h[i], t.h[parent] = t.h[parent], t.h[i]
		i = parent
	}
}

func (t *tenantState) down(i int) {
	n := len(t.h)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && t.less(right, left) {
			least = right
		}
		if !t.less(least, i) {
			return
		}
		t.h[i], t.h[least] = t.h[least], t.h[i]
		i = least
	}
}

func (t *tenantState) push(it tenantItem) {
	t.h = append(t.h, it)
	t.up(len(t.h) - 1)
}

func (t *tenantState) pop() tenantItem {
	it := t.h[0]
	n := len(t.h) - 1
	t.h[0] = t.h[n]
	t.h[n] = tenantItem{}
	t.h = t.h[:n]
	if n > 0 {
		t.down(0)
	}
	return it
}

// TenantQueue is the cluster-level admission queue of the multi-tenant
// refactor: per-tenant EDF heaps under a deficit-weighted fair-share
// picker with guaranteed quota and burst credit. In fair mode, Pop
// serves the pending tenant with the largest unspent quota (deficit =
// entitled share of total served work minus work actually served);
// when every pending tenant is over quota, spare capacity goes to the
// tenant with the least burst-normalized consumption. In FIFO mode
// (the baseline the multi-tenant experiment compares against) Pop
// ignores tenancy entirely and returns the globally earliest arrival.
//
// Popping and charging are split: the dispatcher Pops a candidate,
// sheds it if its deadline already expired (no charge — shed work is
// not service), and Charges the tenant only when the request is
// actually placed on an instance.
type TenantQueue struct {
	fair        bool
	byName      map[string]*tenantState
	tenants     []*tenantState
	seq         uint64
	size        int
	totalWeight float64
	served      float64
}

// NewTenantQueue builds a queue over the given tenants. Requests for
// tenants not declared here are auto-registered with weight 1 on first
// Push. fair=false degrades the picker to global arrival order (plain
// FIFO dispatch, the baseline).
func NewTenantQueue(fair bool, tenants ...TenantConfig) *TenantQueue {
	q := &TenantQueue{fair: fair, byName: make(map[string]*tenantState)}
	for _, cfg := range tenants {
		q.register(cfg)
	}
	return q
}

func (q *TenantQueue) register(cfg TenantConfig) *tenantState {
	cfg = cfg.withDefaults()
	if ts, ok := q.byName[cfg.Name]; ok {
		return ts
	}
	ts := &tenantState{cfg: cfg, idx: len(q.tenants)}
	q.byName[cfg.Name] = ts
	q.tenants = append(q.tenants, ts)
	q.totalWeight += cfg.Weight
	return ts
}

func (q *TenantQueue) stateOf(name string) *tenantState {
	if ts, ok := q.byName[name]; ok {
		return ts
	}
	return q.register(TenantConfig{Name: name})
}

// Len reports the total queued requests across tenants.
func (q *TenantQueue) Len() int { return q.size }

// tenantLen reports one tenant's queued requests.
func (q *TenantQueue) tenantLen(name string) int {
	if ts, ok := q.byName[name]; ok {
		return len(ts.h)
	}
	return 0
}

// TenantRef is a resolved handle to one tenant's queue state. The
// managed cluster's admission path, which sees every arrival of a
// saturated trace, resolves the tenant name once per request and
// issues the per-request operations through the handle, instead of
// paying a string-keyed map lookup per operation. The zero value is
// invalid; obtain refs from Ref. Handles stay valid for the queue's
// lifetime.
type TenantRef struct {
	q  *TenantQueue
	ts *tenantState
}

// Ref resolves a tenant name to a handle, auto-registering undeclared
// names with weight 1. Admission resolves every arrival before it can
// shed, so a tenant whose every request is shed still appears in the
// per-tenant accounting.
//
//valora:hotpath one string lookup per request, then index-only ops
func (q *TenantQueue) Ref(name string) TenantRef {
	return TenantRef{q: q, ts: q.stateOf(name)}
}

// Index reports the tenant's registration index: dense, stable, and
// aligned with the Tenants() slice, so callers can keep per-tenant
// tallies in a slice instead of a string-keyed map.
func (ref TenantRef) Index() int { return ref.ts.idx }

// Push enqueues like TenantQueue.Push.
func (ref TenantRef) Push(r *Request) bool {
	ts := ref.ts
	if ts.cfg.QueueCap > 0 && len(ts.h) >= ts.cfg.QueueCap {
		return false
	}
	ref.q.seq++
	ts.push(tenantItem{req: r, seq: ref.q.seq})
	ref.q.size++
	return true
}

// Charge accounts like TenantQueue.Charge.
func (ref TenantRef) Charge(cost float64) {
	ref.ts.served += cost
	ref.q.served += cost
}

// Refund returns cost like TenantQueue.Refund.
func (ref TenantRef) Refund(cost float64) {
	ref.ts.served -= cost
	ref.q.served -= cost
}

// Push enqueues a request under its tenant. It reports false — and
// leaves the queue untouched — when the tenant's queue is at its cap;
// the caller sheds the request (per-tenant caps are the admission
// stage's isolation guarantee: one tenant's backlog cannot consume the
// whole cluster queue).
func (q *TenantQueue) Push(r *Request) bool {
	return q.Ref(r.Tenant).Push(r)
}

// Requeue re-admits a preempted request, bypassing the tenant's
// QueueCap: the request was already admitted (and survived the cap)
// once, so shedding it at the cap on the way back would turn a
// displacement into a drop. Age and deadline are untouched — the EDF
// key (Arrival+Deadline) puts it back exactly where its urgency says,
// ahead of younger work.
func (q *TenantQueue) Requeue(r *Request) {
	ts := q.stateOf(r.Tenant)
	q.seq++
	ts.push(tenantItem{req: r, seq: q.seq})
	q.size++
}

// Refund returns cost units charged at a placement that a preemption
// undid, so the tenant's served share reflects work actually retained.
func (q *TenantQueue) Refund(tenant string, cost float64) {
	q.Ref(tenant).Refund(cost)
}

// deficit is the tenant's unspent guaranteed quota in cost units:
// its entitled fraction of all served work minus the work it has
// consumed. Positive means under quota.
func (q *TenantQueue) deficit(ts *tenantState) float64 {
	return q.served*(ts.cfg.Weight/q.totalWeight) - ts.served
}

// Pop removes and returns the next request to dispatch, or nil when
// empty. Fair mode: the pending under-quota tenant with the largest
// deficit wins; with no under-quota tenant pending, the smallest
// burst-normalized consumption wins (ties to the earlier-registered
// tenant, keeping runs deterministic). FIFO mode: the globally
// earliest (arrival, submission) request wins regardless of tenancy.
// Within the chosen tenant requests leave in EDF order.
//
//valora:hotpath
func (q *TenantQueue) Pop() *Request {
	pick := q.pickNext()
	if pick == nil {
		return nil
	}
	q.size--
	return pick.pop().req
}

// pickNext selects the tenant the next pop serves (nil when empty)
// without mutating anything.
//
//valora:hotpath
func (q *TenantQueue) pickNext() *tenantState {
	if q.size == 0 {
		return nil
	}
	var pick *tenantState
	if !q.fair {
		var bestArr time.Duration
		var bestSeq uint64
		for _, ts := range q.tenants {
			if len(ts.h) == 0 {
				continue
			}
			// FIFO mode still pops each tenant's EDF head; among heads
			// the earliest (arrival, seq) wins, approximating a single
			// global arrival queue.
			head := ts.h[0]
			if pick == nil || head.req.Arrival < bestArr ||
				(head.req.Arrival == bestArr && head.seq < bestSeq) {
				pick, bestArr, bestSeq = ts, head.req.Arrival, head.seq
			}
		}
	} else {
		var bestDeficit float64
		for _, ts := range q.tenants {
			if len(ts.h) == 0 {
				continue
			}
			if d := q.deficit(ts); d >= 0 && (pick == nil || d > bestDeficit) {
				pick, bestDeficit = ts, d
			}
		}
		if pick == nil {
			// Every pending tenant is over quota: burst credit divides
			// the spare capacity.
			var bestBurst float64
			for _, ts := range q.tenants {
				if len(ts.h) == 0 {
					continue
				}
				b := ts.served / ts.cfg.Burst
				if pick == nil || b < bestBurst {
					pick, bestBurst = ts, b
				}
			}
		}
	}
	return pick
}

// ShedExpired removes every queued request whose absolute deadline has
// already passed, invoking drop for each. Within a tenant's EDF heap
// expired requests sort before everything else (earliest deadlines),
// so the sweep only ever inspects heads — O(tenants) when nothing has
// expired. Without it, dead requests would hold QueueCap slots under
// full backpressure and force still-serviceable arrivals to be shed at
// the cap.
func (q *TenantQueue) ShedExpired(now time.Duration, drop func(*Request)) {
	for _, ts := range q.tenants {
		for len(ts.h) > 0 {
			head := ts.h[0].req
			if head.Deadline <= 0 || now <= head.Arrival+head.Deadline {
				break
			}
			q.size--
			drop(ts.pop().req)
		}
	}
}

// Charge accounts cost units of service against a tenant — called when
// a popped request is actually placed (shed requests are not charged).
func (q *TenantQueue) Charge(tenant string, cost float64) {
	q.Ref(tenant).Charge(cost)
}

// Served reports the cost units charged per tenant (the basis of the
// Jain fairness index and the served-share column).
func (q *TenantQueue) Served() map[string]float64 {
	out := make(map[string]float64, len(q.tenants))
	for _, ts := range q.tenants {
		out[ts.cfg.Name] = ts.served
	}
	return out
}

// Tenants reports the registered tenant configurations in registration
// order (defaults applied).
func (q *TenantQueue) Tenants() []TenantConfig {
	out := make([]TenantConfig, len(q.tenants))
	for i, ts := range q.tenants {
		out[i] = ts.cfg
	}
	return out
}

// underQuota reports whether the tenant currently holds unspent
// guaranteed quota (used by the starvation property test to check the
// picker's invariant from outside).
func (q *TenantQueue) underQuota(name string) bool {
	ts, ok := q.byName[name]
	return ok && q.deficit(ts) >= 0
}
