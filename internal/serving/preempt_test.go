package serving

import (
	"math/rand"
	"testing"
	"time"

	"valora/internal/lmm"
	"valora/internal/sched"
	"valora/internal/simgpu"
	"valora/internal/workload"
)

// preemptCluster builds a small managed cluster with iteration-level
// preemption enabled (deadline credit on, the full mechanism).
func preemptCluster(t *testing.T, maxPreempt int) *Cluster {
	t.Helper()
	build := func(int) (Options, error) {
		opts, err := SystemOptions(SystemVaLoRA, simgpu.A100(), lmm.QwenVL7B())
		if err != nil {
			return Options{}, err
		}
		p := sched.NewVaLoRAPolicy()
		p.Preempt = true
		p.DeadlineCredit = true
		opts.Policy = p
		// AdmitCap above MaxBatch so unbatched actives exist — the
		// victim pool policy evictions draw from.
		opts.AdmitCap = 48
		opts.Preemption = &PreemptionConfig{MaxPreemptions: maxPreempt}
		return opts, nil
	}
	cfg := SchedulingConfig{
		Tenants: []sched.TenantConfig{
			{Name: "rt", Weight: 3, Priority: 2},
			{Name: "be", Weight: 1, Priority: 0},
		},
		FairShare: true,
		HighWater: 96,
	}
	cl, err := NewManagedCluster(2, NewLeastLoaded(), cfg, build)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// adversarialTrace builds a deadline mix designed to provoke constant
// displacement: a dense tight-deadline class colliding with long
// best-effort decodes, plus a slice of mid-tier deadlines that are
// both eviction victims and eviction requesters.
func adversarialTrace(seed int64, n int) workload.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := make(workload.Trace, 0, n)
	var now time.Duration
	for i := 0; i < n; i++ {
		now += time.Duration(rng.ExpFloat64() * float64(4*time.Millisecond))
		r := &sched.Request{
			ID:      int64(i + 1),
			Arrival: now,
		}
		switch rng.Intn(3) {
		case 0: // tight-deadline realtime
			r.Tenant = "rt"
			r.AdapterID = rng.Intn(3)
			r.InputTokens = 32 + rng.Intn(64)
			r.OutputTokens = 1 + rng.Intn(2)
			r.Deadline = time.Duration(50+rng.Intn(250)) * time.Millisecond
		case 1: // mid-tier deadline: victim to some, requester to others
			r.Tenant = "rt"
			r.AdapterID = rng.Intn(4)
			r.InputTokens = 64 + rng.Intn(128)
			r.OutputTokens = 1 + rng.Intn(8)
			r.Deadline = time.Duration(300+rng.Intn(1200)) * time.Millisecond
		default: // long best-effort decode
			r.Tenant = "be"
			r.AdapterID = 4 + rng.Intn(4)
			r.InputTokens = 128 + rng.Intn(256)
			r.OutputTokens = 32 + rng.Intn(96)
		}
		tr = append(tr, r)
	}
	return tr
}

// TestPreemptionNeverLosesRequests is the conservation property: under
// adversarial deadline mixes with preemption enabled, every submitted
// request either completes or is shed/rejected with a reason — a
// displaced request can bounce between instances but never vanish.
func TestPreemptionNeverLosesRequests(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234} {
		cl := preemptCluster(t, 2)
		trace := adversarialTrace(seed, 600)
		rep, err := cl.Run(trace)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := rep.Completed + rep.Rejected + rep.Shed; got != len(trace) {
			t.Fatalf("seed %d: %d completed + %d rejected + %d shed = %d, want %d",
				seed, rep.Completed, rep.Rejected, rep.Shed, got, len(trace))
		}
		for _, r := range trace {
			if r.Phase != sched.PhaseDone {
				t.Fatalf("seed %d: request %d ended in phase %v (preempted %d times)",
					seed, r.ID, r.Phase, r.PreemptCount)
			}
		}
		if rep.Preemptions == 0 {
			t.Fatalf("seed %d: adversarial mix provoked no preemptions — test lost its teeth", seed)
		}
	}
}

// TestUnpreemptableGuardBoundsDisplacement is the no-livelock
// property: no request is ever displaced more than MaxPreemptions
// times, and the run terminates (Drain converges) even when every
// deadline-carrying request is urgent enough to keep demanding
// evictions.
func TestUnpreemptableGuardBoundsDisplacement(t *testing.T) {
	for _, maxP := range []int{1, 2, 3} {
		cl := preemptCluster(t, maxP)
		trace := adversarialTrace(99, 600)
		rep, err := cl.Run(trace)
		if err != nil {
			t.Fatalf("maxPreempt %d: %v", maxP, err)
		}
		if rep.Completed+rep.Rejected+rep.Shed != len(trace) {
			t.Fatalf("maxPreempt %d: lost requests", maxP)
		}
		over := 0
		for _, r := range trace {
			n := int(r.PreemptCount)
			if n > maxP {
				over++
			}
			if n >= maxP && !r.Unpreemptable && n > 0 {
				t.Fatalf("maxPreempt %d: request %d preempted %d times but not marked unpreemptable",
					maxP, r.ID, n)
			}
		}
		if over > 0 {
			t.Fatalf("maxPreempt %d: %d requests displaced beyond the guard", maxP, over)
		}
	}
}

// TestMaxPreemptionsFitsTheCount: sched.Request counts displacements
// in a byte, so a MaxPreemptions the count cannot reach is rejected
// instead of letting the count wrap before the no-livelock guard trips.
func TestMaxPreemptionsFitsTheCount(t *testing.T) {
	for _, c := range []struct {
		max int
		ok  bool
	}{{255, true}, {256, false}} {
		opts, err := SystemOptions(SystemVaLoRA, simgpu.A100(), lmm.QwenVL7B())
		if err != nil {
			t.Fatal(err)
		}
		opts.Preemption = &PreemptionConfig{MaxPreemptions: c.max}
		_, err = NewServer(opts)
		if (err == nil) != c.ok {
			t.Fatalf("MaxPreemptions %d: NewServer error %v, want accepted=%v", c.max, err, c.ok)
		}
	}
}

// TestStandaloneEvictionRequeuesLocally covers the no-cluster path: a
// single server with preemption enabled and no re-admission hook
// routes evicted requests back into its own waiting queue, and they
// still complete.
func TestStandaloneEvictionRequeuesLocally(t *testing.T) {
	opts, err := SystemOptions(SystemVaLoRA, simgpu.A100(), lmm.QwenVL7B())
	if err != nil {
		t.Fatal(err)
	}
	p := sched.NewVaLoRAPolicy()
	p.Preempt = true
	p.DeadlineCredit = true
	opts.Policy = p
	opts.AdmitCap = 48
	opts.Preemption = &PreemptionConfig{}
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	trace := adversarialTrace(5, 300)
	for _, r := range trace {
		r.Tenant = "" // untenanted: exercises the legacy path
	}
	rep, err := srv.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed+rep.Rejected != len(trace) {
		t.Fatalf("%d completed + %d rejected, want %d", rep.Completed, rep.Rejected, len(trace))
	}
	for _, r := range trace {
		if r.Phase != sched.PhaseDone {
			t.Fatalf("request %d stranded in phase %v", r.ID, r.Phase)
		}
	}
}

// TestPreemptionOffMatchesDeadlineBlind locks the compatibility
// guarantee: with Options.Preemption nil (and a default policy) the
// engine never displaces anything on the eviction path and the report
// carries no recompute from displacement beyond KV-pressure recompute.
func TestPreemptionOffMatchesDeadlineBlind(t *testing.T) {
	build := func(int) (Options, error) {
		return SystemOptions(SystemVaLoRA, simgpu.A100(), lmm.QwenVL7B())
	}
	cfg := SchedulingConfig{
		Tenants:   []sched.TenantConfig{{Name: "rt", Weight: 1}, {Name: "be", Weight: 1}},
		FairShare: true,
		HighWater: 96,
	}
	cl, err := NewManagedCluster(2, NewLeastLoaded(), cfg, build)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cl.Run(adversarialTrace(11, 400))
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range rep.Tenants {
		if tr.Preemptions != 0 {
			t.Fatalf("tenant %s shows %d displacements with preemption off", tr.Name, tr.Preemptions)
		}
	}
}
