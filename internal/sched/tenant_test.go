package sched

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func tenantReq(id int64, tenant string, arrival, deadline time.Duration, in, out int) *Request {
	return &Request{
		ID: id, Tenant: tenant, Arrival: arrival, Deadline: deadline,
		InputTokens: in, OutputTokens: out,
	}
}

// TestTenantQueueEDFWithinTenant checks deadline-aware reordering: a
// later-arriving request with a tighter absolute deadline jumps ahead,
// and best-effort requests sort after every deadline-carrying one.
func TestTenantQueueEDFWithinTenant(t *testing.T) {
	q := NewTenantQueue(true, TenantConfig{Name: "a", Weight: 1})
	q.Push(tenantReq(1, "a", 0, 0, 10, 1))                                      // best effort
	q.Push(tenantReq(2, "a", 10*time.Millisecond, time.Second, 10, 1))          // due 1010ms
	q.Push(tenantReq(3, "a", 20*time.Millisecond, 100*time.Millisecond, 10, 1)) // due 120ms

	want := []int64{3, 2, 1}
	for i, id := range want {
		r := q.Pop()
		if r == nil || r.ID != id {
			t.Fatalf("pop %d: got %v, want id %d", i, r, id)
		}
		q.Charge(r.Tenant, RequestCost(r))
	}
	if q.Pop() != nil {
		t.Fatal("queue should be empty")
	}
}

// TestTenantQueueFIFOMode checks the baseline picker ignores tenancy
// and deadlines across tenants: global arrival order wins.
func TestTenantQueueFIFOMode(t *testing.T) {
	q := NewTenantQueue(false,
		TenantConfig{Name: "a", Weight: 10},
		TenantConfig{Name: "b", Weight: 1})
	q.Push(tenantReq(1, "b", 5*time.Millisecond, 0, 10, 1))
	q.Push(tenantReq(2, "a", 1*time.Millisecond, 0, 10, 1))
	q.Push(tenantReq(3, "b", 3*time.Millisecond, 0, 10, 1))
	want := []int64{2, 3, 1}
	for i, id := range want {
		if r := q.Pop(); r.ID != id {
			t.Fatalf("pop %d: got id %d, want %d", i, r.ID, id)
		}
	}
}

// TestTenantQueueCap checks the per-tenant admission cap: pushes beyond
// the cap are refused without disturbing other tenants.
func TestTenantQueueCap(t *testing.T) {
	q := NewTenantQueue(true,
		TenantConfig{Name: "a", Weight: 1, QueueCap: 2},
		TenantConfig{Name: "b", Weight: 1})
	if !q.Push(tenantReq(1, "a", 0, 0, 1, 1)) || !q.Push(tenantReq(2, "a", 0, 0, 1, 1)) {
		t.Fatal("pushes under the cap must be admitted")
	}
	if q.Push(tenantReq(3, "a", 0, 0, 1, 1)) {
		t.Fatal("push over the cap must be refused")
	}
	if !q.Push(tenantReq(4, "b", 0, 0, 1, 1)) {
		t.Fatal("tenant b is uncapped")
	}
	if q.Len() != 3 || q.tenantLen("a") != 2 || q.tenantLen("b") != 1 {
		t.Fatalf("queue sizes wrong: len=%d a=%d b=%d", q.Len(), q.tenantLen("a"), q.tenantLen("b"))
	}
}

// TestTenantQueueNoStarvationProperty is the fair-share invariant of
// the issue: across randomized backlogs, whenever the picker serves an
// over-quota tenant, no tenant with pending work held unspent quota.
// Verified from outside via underQuota before every Pop.
func TestTenantQueueNoStarvationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		cfgs := []TenantConfig{
			{Name: "rt", Weight: 1 + rng.Float64()*4, Burst: 1 + rng.Float64()},
			{Name: "ia", Weight: 1 + rng.Float64()*2, Burst: 1 + rng.Float64()},
			{Name: "bt", Weight: 0.2 + rng.Float64(), Burst: 0.5 + rng.Float64()*2},
		}
		q := NewTenantQueue(true, cfgs...)
		var id int64
		push := func(n int) {
			for i := 0; i < n; i++ {
				id++
				c := cfgs[rng.Intn(len(cfgs))]
				var dl time.Duration
				if rng.Intn(2) == 0 {
					dl = time.Duration(1+rng.Intn(500)) * time.Millisecond
				}
				q.Push(tenantReq(id, c.Name, time.Duration(id)*time.Millisecond, dl,
					1+rng.Intn(256), 1+rng.Intn(8)))
			}
		}
		push(64)
		for q.Len() > 0 {
			pendingUnder := map[string]bool{}
			for _, c := range cfgs {
				if q.tenantLen(c.Name) > 0 && q.underQuota(c.Name) {
					pendingUnder[c.Name] = true
				}
			}
			r := q.Pop()
			if len(pendingUnder) > 0 && !pendingUnder[r.Tenant] {
				t.Fatalf("trial %d: picked over-quota tenant %q while %v held unspent quota and pending work",
					trial, r.Tenant, pendingUnder)
			}
			q.Charge(r.Tenant, RequestCost(r))
			if rng.Intn(4) == 0 {
				push(rng.Intn(8))
			}
		}
	}
}

// TestTenantQueueShedExpired: expired requests are purged from heap
// heads, freeing their QueueCap slots, while unexpired and best-effort
// requests survive.
func TestTenantQueueShedExpired(t *testing.T) {
	q := NewTenantQueue(true, TenantConfig{Name: "a", Weight: 1, QueueCap: 3})
	q.Push(tenantReq(1, "a", 0, 50*time.Millisecond, 10, 1))           // expires at 50ms
	q.Push(tenantReq(2, "a", 0, 0, 10, 1))                             // best effort
	q.Push(tenantReq(3, "a", 10*time.Millisecond, time.Second, 10, 1)) // expires at 1010ms
	if q.Push(tenantReq(4, "a", 20*time.Millisecond, time.Second, 10, 1)) {
		t.Fatal("queue should be at cap")
	}
	var dropped []int64
	q.ShedExpired(100*time.Millisecond, func(r *Request) { dropped = append(dropped, r.ID) })
	if len(dropped) != 1 || dropped[0] != 1 {
		t.Fatalf("dropped %v, want [1]", dropped)
	}
	if q.Len() != 2 {
		t.Fatalf("len %d after purge, want 2", q.Len())
	}
	// The freed slot admits a fresh arrival.
	if !q.Push(tenantReq(5, "a", 100*time.Millisecond, time.Second, 10, 1)) {
		t.Fatal("freed cap slot should admit a new request")
	}
	// Nothing else expires at this time.
	q.ShedExpired(100*time.Millisecond, func(r *Request) { t.Fatalf("unexpected drop %d", r.ID) })
}

// TestTenantQueueShareConvergence keeps every tenant backlogged and
// checks long-run served shares converge to the configured weights.
func TestTenantQueueShareConvergence(t *testing.T) {
	cfgs := []TenantConfig{
		{Name: "a", Weight: 5},
		{Name: "b", Weight: 3},
		{Name: "c", Weight: 2},
	}
	q := NewTenantQueue(true, cfgs...)
	rng := rand.New(rand.NewSource(11))
	var id int64
	refill := func() {
		for _, c := range cfgs {
			for q.tenantLen(c.Name) < 4 {
				id++
				q.Push(tenantReq(id, c.Name, time.Duration(id), 0, 50+rng.Intn(100), 1+rng.Intn(4)))
			}
		}
	}
	for i := 0; i < 5000; i++ {
		refill()
		r := q.Pop()
		q.Charge(r.Tenant, RequestCost(r))
	}
	served := q.Served()
	var total float64
	for _, v := range served {
		total += v
	}
	for _, c := range cfgs {
		got := served[c.Name] / total
		want := c.Weight / 10
		if math.Abs(got-want) > 0.02 {
			t.Errorf("tenant %s: served share %.3f, want %.3f±0.02", c.Name, got, want)
		}
	}
}

// TestTenantQueueBurstCredit exhausts quota tracking with a single
// backlogged tenant: an over-quota tenant still drains via burst
// credit, and burst weights divide spare capacity proportionally.
func TestTenantQueueBurstCredit(t *testing.T) {
	q := NewTenantQueue(true,
		TenantConfig{Name: "a", Weight: 1, Burst: 3},
		TenantConfig{Name: "b", Weight: 1, Burst: 1})
	// Drive tenant "a" far over quota while "b" stays empty: pops must
	// still serve "a" (burst), never nil.
	var id int64
	for i := 0; i < 32; i++ {
		id++
		q.Push(tenantReq(id, "a", time.Duration(id), 0, 100, 1))
	}
	for q.Len() > 0 {
		r := q.Pop()
		if r == nil {
			t.Fatal("backlogged queue returned nil")
		}
		q.Charge(r.Tenant, RequestCost(r))
	}
	if q.Served()["a"] == 0 {
		t.Fatal("tenant a should have been served via burst credit")
	}
}
