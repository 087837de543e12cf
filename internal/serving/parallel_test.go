package serving

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"valora/internal/lmm"
	"valora/internal/lora"
	"valora/internal/registry"
	"valora/internal/sched"
	"valora/internal/simgpu"
	"valora/internal/workload"
)

// The sharded engine's acceptance gate: for every configuration,
// RunSharded is bit-identical to Run — reflect.DeepEqual on the whole
// Report, not a tolerance check — across shard counts, seeds, dispatch
// policies, and the managed path. Traces are regenerated per run
// (requests mutate in place) and clusters are rebuilt per run
// (dispatch policies carry state).

var shardCounts = []int{1, 2, 4, 8}

func checkReportIdentical(t *testing.T, want, got *Report, label string) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: sharded report diverges from sequential\nsequential: %+v\nsharded:    %+v", label, want, got)
	}
}

// TestShardedUnmanagedBitIdentical covers both unmanaged modes: the
// partitioned fast path (round-robin, stateless) and the epoch-barrier
// path (policies that read live instance state).
func TestShardedUnmanagedBitIdentical(t *testing.T) {
	model := lmm.QwenVL7B()
	policies := []struct {
		name string
		mk   func() DispatchPolicy
	}{
		{"round-robin", func() DispatchPolicy { return NewRoundRobin() }},
		{"least-loaded", func() DispatchPolicy { return NewLeastLoaded() }},
		{"adapter-affinity", func() DispatchPolicy { return NewAdapterAffinity() }},
		{"tenant-affinity", func() DispatchPolicy { return NewTenantAffinity(nil) }},
	}
	for _, pol := range policies {
		for _, seed := range []int64{7, 51} {
			run := func(shards int) *Report {
				cl, err := NewClusterWithDispatch(4, pol.mk(), swapConstrained(model))
				if err != nil {
					t.Fatal(err)
				}
				trace := skewedSwapTrace(seed)
				var rep *Report
				if shards == 0 {
					rep, err = cl.Run(trace)
				} else {
					rep, err = cl.RunSharded(trace, shards)
				}
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			want := run(0)
			for _, shards := range shardCounts {
				got := run(shards)
				checkReportIdentical(t, want, got,
					fmt.Sprintf("%s/seed=%d/shards=%d", pol.name, seed, shards))
			}
		}
	}
}

// TestShardedManagedBitIdentical replays the managed runner (admission,
// fair-share and FIFO queueing, deadline shedding, backpressure)
// through RunSharded, which runs it sequentially at every shard count,
// and checks the reports match Run's.
func TestShardedManagedBitIdentical(t *testing.T) {
	for _, fair := range []bool{true, false} {
		for _, seed := range []int64{11, 42} {
			run := func(shards int) *Report {
				cfg := SchedulingConfig{
					Tenants:   tenantClasses(),
					FairShare: fair,
					HighWater: 4,
				}
				cl, err := NewManagedCluster(2, NewLeastLoaded(), cfg, managedBuild(t))
				if err != nil {
					t.Fatal(err)
				}
				trace := workload.GenMultiTenant(workload.DefaultMultiTenant(6*time.Second, 3, seed))
				var rep *Report
				if shards == 0 {
					rep, err = cl.Run(trace)
				} else {
					rep, err = cl.RunSharded(trace, shards)
				}
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			want := run(0)
			if want.Shed == 0 {
				t.Fatalf("fair=%v seed=%d: workload never exercises admission shedding", fair, seed)
			}
			for _, shards := range shardCounts {
				got := run(shards)
				checkReportIdentical(t, want, got, "managed")
			}
		}
	}
}

// TestShardedManagedLookaheadBitIdentical exercises the bounded-
// lookahead engine in its target regime — a saturated managed fleet —
// and checks the sharded runs are bit-identical to the sequential
// reference (which runs the same engine inline). Saturation is
// asserted, not assumed: a trace that never backs up the queue would
// leave the Quantum-epoch path untested.
func TestShardedManagedLookaheadBitIdentical(t *testing.T) {
	for _, fair := range []bool{true, false} {
		for _, seed := range []int64{11, 42} {
			run := func(shards int) *Report {
				cfg := SchedulingConfig{
					Tenants:   tenantClasses(),
					FairShare: fair,
					HighWater: 4,
					Lookahead: &LookaheadConfig{Quantum: 50 * time.Millisecond},
				}
				cl, err := NewManagedCluster(4, NewLeastLoaded(), cfg, managedBuild(t))
				if err != nil {
					t.Fatal(err)
				}
				if mode := cl.planShards(); mode != shardManagedLookahead {
					t.Fatalf("planner classified mode %d, want managed-lookahead", mode)
				}
				trace := workload.GenMultiTenant(workload.DefaultMultiTenant(6*time.Second, 6, seed))
				var rep *Report
				if shards == 0 {
					rep, err = cl.Run(trace)
				} else {
					rep, err = cl.RunSharded(trace, shards)
				}
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			want := run(0)
			if want.Shed == 0 {
				t.Fatalf("fair=%v seed=%d: workload never saturates the queue", fair, seed)
			}
			for _, shards := range shardCounts {
				got := run(shards)
				checkReportIdentical(t, want, got,
					fmt.Sprintf("lookahead/fair=%v/seed=%d/shards=%d", fair, seed, shards))
			}
		}
	}
}

// TestLookaheadConfigValidation pins the constructor's compatibility
// matrix: lookahead's reservation proof requires a fixed fleet, no
// shared store, and no preemption, so those combinations must be
// rejected at build time rather than diverging at run time.
func TestLookaheadConfigValidation(t *testing.T) {
	la := &LookaheadConfig{}
	base := SchedulingConfig{Tenants: tenantClasses(), FairShare: true, HighWater: 4, Lookahead: la}

	with := base
	with.Autoscale = &AutoscaleConfig{Min: 1, Max: 4}
	if _, err := NewManagedCluster(2, NewLeastLoaded(), with, managedBuild(t)); err == nil {
		t.Fatal("Lookahead+Autoscale must be rejected")
	}

	model := lmm.QwenVL7B()
	adapters := lora.MakeUniformAdapters(model, 4, model.DefaultRank)
	store := registry.NewStore(registry.Config{
		HostCapacity:    10 * adapters[0].Bytes(),
		RemoteLatency:   5 * time.Millisecond,
		RemoteBandwidth: 2.5e9,
	}, registry.CatalogFromAdapters(adapters, nil))
	with = base
	with.Store = store
	if _, err := NewManagedCluster(2, NewLeastLoaded(), with, managedBuild(t)); err == nil {
		t.Fatal("Lookahead+Store must be rejected")
	}

	preemptBuild := func(int) (Options, error) {
		opts, err := SystemOptions(SystemVaLoRA, simgpu.A100(), model)
		if err != nil {
			return Options{}, err
		}
		opts.Preemption = &PreemptionConfig{MaxPreemptions: 2}
		return opts, nil
	}
	if _, err := NewManagedCluster(2, NewLeastLoaded(), base, preemptBuild); err == nil {
		t.Fatal("Lookahead+Preemption must be rejected")
	}

	// The valid configuration applies defaults: Slots from HighWater,
	// a non-zero Quantum.
	cl, err := NewManagedCluster(2, NewLeastLoaded(), base, managedBuild(t))
	if err != nil {
		t.Fatalf("valid lookahead config rejected: %v", err)
	}
	got := cl.sched.Lookahead
	if got.Slots != 4 || got.Quantum <= 0 {
		t.Fatalf("defaults not applied: %+v", got)
	}
	if la.Slots != 0 {
		t.Fatal("caller's LookaheadConfig must not be mutated")
	}
}

// TestLookaheadPreemptionGuard covers the lookahead engine's guard:
// NewManagedCluster rejects Lookahead with preemption, but a requeue
// that slips through anyway (preemption switched on for one instance
// after validation) must fail the run at a barrier with the same error
// whether the engine advances inline or on 1, 2 or 4 shard workers.
func TestLookaheadPreemptionGuard(t *testing.T) {
	build := func() *Cluster {
		cfg := SchedulingConfig{
			Tenants: []sched.TenantConfig{
				{Name: "rt", Weight: 3, Priority: 2},
				{Name: "be", Weight: 1, Priority: 0},
			},
			FairShare: true,
			HighWater: 96,
			Lookahead: &LookaheadConfig{},
		}
		cl, err := NewManagedCluster(4, NewLeastLoaded(), cfg, func(int) (Options, error) {
			opts, err := SystemOptions(SystemVaLoRA, simgpu.A100(), lmm.QwenVL7B())
			if err != nil {
				return Options{}, err
			}
			p := sched.NewVaLoRAPolicy()
			p.Preempt = true
			p.DeadlineCredit = true
			opts.Policy = p
			opts.AdmitCap = 48
			return opts, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		cl.servers[2].opts.Preemption = &PreemptionConfig{MaxPreemptions: 2}
		return cl
	}
	_, err := build().Run(adversarialTrace(9, 600))
	if err == nil || !strings.Contains(err.Error(), "preemption requeue") {
		t.Fatalf("sequential run: got error %v, want the preemption-requeue guard", err)
	}
	for _, shards := range []int{1, 2, 4} {
		_, got := build().RunSharded(adversarialTrace(9, 600), shards)
		if got == nil || got.Error() != err.Error() {
			t.Fatalf("shards=%d: got error %v, want %q", shards, got, err)
		}
	}
}

// TestShardedCoupledConfigsDelegate pins the planner's conservative
// side: preemption, autoscaling, the shared registry store and managed
// admission without Lookahead make every instance step a potential
// coupling point, so RunSharded must classify them sequential and
// still return bit-identical reports.
func TestShardedCoupledConfigsDelegate(t *testing.T) {
	model := lmm.QwenVL7B()
	adapters := lora.MakeUniformAdapters(model, 16, model.DefaultRank)
	ab := adapters[0].Bytes()
	plainManaged := func(fair bool) func() (*Cluster, workload.Trace) {
		return func() (*Cluster, workload.Trace) {
			cfg := SchedulingConfig{Tenants: tenantClasses(), FairShare: fair, HighWater: 4}
			cl, err := NewManagedCluster(2, NewLeastLoaded(), cfg, managedBuild(t))
			if err != nil {
				t.Fatal(err)
			}
			return cl, workload.GenMultiTenant(workload.DefaultMultiTenant(6*time.Second, 3, 11))
		}
	}

	cases := []struct {
		name  string
		build func() (*Cluster, workload.Trace)
	}{
		{"managed/fair-share", plainManaged(true)},
		{"managed/fifo", plainManaged(false)},
		{"preemption", func() (*Cluster, workload.Trace) {
			return preemptCluster(t, 2), adversarialTrace(9, 600)
		}},
		{"autoscale", func() (*Cluster, workload.Trace) {
			as := &AutoscaleConfig{Min: 1, Max: 4, HighDepth: 32, LowDepth: 4, Cooldown: time.Second}
			cfg := SchedulingConfig{Tenants: tenantClasses(), FairShare: true, HighWater: 8, Autoscale: as}
			cl, err := NewManagedCluster(1, NewLeastLoaded(), cfg, managedBuild(t))
			if err != nil {
				t.Fatal(err)
			}
			return cl, workload.GenMultiTenant(workload.DefaultMultiTenant(6*time.Second, 1, 42))
		}},
		{"registry-store", func() (*Cluster, workload.Trace) {
			store := registry.NewStore(registry.Config{
				HostCapacity:    10 * ab,
				RemoteLatency:   5 * time.Millisecond,
				RemoteBandwidth: 2.5e9,
			}, registry.CatalogFromAdapters(adapters, nil))
			build := func(int) (Options, error) {
				opts, err := SystemOptions(SystemVaLoRA, simgpu.A100(), model)
				if err != nil {
					return Options{}, err
				}
				opts.Registry = lora.NewRegistry(adapters...)
				opts.AdapterPoolBytes = 4 * ab
				opts.Store = store
				return opts, nil
			}
			cfg := SchedulingConfig{
				Tenants:           []sched.TenantConfig{{Name: "t", Weight: 1}},
				FairShare:         true,
				HighWater:         3,
				Store:             store,
				PrefetchLookahead: 4,
			}
			cl, err := NewManagedCluster(2, NewLeastLoaded(), cfg, build)
			if err != nil {
				t.Fatal(err)
			}
			trace := workload.GenMultiTenant(workload.MultiTenantConfig{
				Duration: 10 * time.Second,
				Seed:     21,
				Tenants: []workload.TenantTraffic{{
					Tenant: "t", Rate: 50,
					NumAdapters: 16, Skew: 0.6, HotSetDriftEvery: 3 * time.Second,
					MinInputTokens: 32, MaxInputTokens: 64, MaxOutputTokens: 2,
				}},
			})
			workload.MarkColdCandidates(trace, 2*time.Second)
			return cl, trace
		}},
	}
	for _, tc := range cases {
		cl, _ := tc.build()
		if mode := cl.planShards(); mode != shardSequential {
			t.Fatalf("%s: planner classified mode %d, want sequential delegation", tc.name, mode)
		}
		seq, trace := tc.build()
		want, err := seq.Run(trace)
		if err != nil {
			t.Fatalf("%s sequential: %v", tc.name, err)
		}
		for _, shards := range []int{1, 4} {
			sh, trace := tc.build()
			got, err := sh.RunSharded(trace, shards)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", tc.name, shards, err)
			}
			checkReportIdentical(t, want, got, tc.name)
		}
	}
}

// TestShardPlannerModes pins each configuration to its planned mode.
func TestShardPlannerModes(t *testing.T) {
	model := lmm.QwenVL7B()
	unmanaged := func(d DispatchPolicy) *Cluster {
		cl, err := NewClusterWithDispatch(2, d, swapConstrained(model))
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	if got := unmanaged(NewRoundRobin()).planShards(); got != shardPartitioned {
		t.Fatalf("round-robin: mode %d, want partitioned", got)
	}
	if got := unmanaged(NewLeastLoaded()).planShards(); got != shardEpoch {
		t.Fatalf("least-loaded: mode %d, want epoch", got)
	}
	cfg := SchedulingConfig{Tenants: tenantClasses(), FairShare: true, HighWater: 8}
	cl, err := NewManagedCluster(2, NewRoundRobin(), cfg, managedBuild(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := cl.planShards(); got != shardSequential {
		t.Fatalf("managed plain: mode %d, want sequential", got)
	}
}

// TestRunShardedValidation covers argument handling: zero shards is an
// error; shard counts beyond the fleet clamp instead of failing.
func TestRunShardedValidation(t *testing.T) {
	model := lmm.QwenVL7B()
	cl, err := NewClusterWithDispatch(2, NewRoundRobin(), swapConstrained(model))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RunSharded(skewedSwapTrace(3), 0); err == nil {
		t.Fatal("shards=0 must fail")
	}
	if _, err := cl.RunSharded(skewedSwapTrace(3), 64); err != nil {
		t.Fatalf("oversized shard count should clamp, got %v", err)
	}
}
