package serving

import (
	"fmt"
	"reflect"
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

// TestShardedUnmanagedBitIdentical covers both unmanaged plans: the
// partitioned drain (round-robin, stateless) and the shared timeline
// (policies that read live instance state), each against runTimeline.
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
					rep, err = cl.runTimeline(trace)
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
// through RunSharded, which runs it with Run at every shard count, and
// checks the reports match Run's.
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

// TestShardedCoupledConfigsDelegate pins the planner's conservative
// side: state-reading dispatch (least-loaded, adapter and tenant
// affinity), managed admission, preemption, autoscaling and the shared
// registry store couple instances, so RunSharded must run them with
// Run and return bit-identical reports at every shard count.
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

	unmanaged := func(mk func() DispatchPolicy) func() (*Cluster, workload.Trace) {
		return func() (*Cluster, workload.Trace) {
			cl, err := NewClusterWithDispatch(4, mk(), swapConstrained(model))
			if err != nil {
				t.Fatal(err)
			}
			return cl, skewedSwapTrace(7)
		}
	}

	cases := []struct {
		name  string
		build func() (*Cluster, workload.Trace)
	}{
		{"unmanaged/least-loaded", unmanaged(func() DispatchPolicy { return NewLeastLoaded() })},
		{"unmanaged/adapter-affinity", unmanaged(func() DispatchPolicy { return NewAdapterAffinity() })},
		{"unmanaged/tenant-affinity", unmanaged(func() DispatchPolicy { return NewTenantAffinity(nil) })},
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
		if cl.partitioned() {
			t.Fatalf("%s: planner chose the partitioned plan, want Run", tc.name)
		}
		seq, trace := tc.build()
		want, err := seq.Run(trace)
		if err != nil {
			t.Fatalf("%s sequential: %v", tc.name, err)
		}
		for _, shards := range shardCounts {
			sh, trace := tc.build()
			got, err := sh.RunSharded(trace, shards)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", tc.name, shards, err)
			}
			checkReportIdentical(t, want, got, fmt.Sprintf("%s/shards=%d", tc.name, shards))
		}
	}
}

// TestShardPlannerModes pins the two-way plan: only an unmanaged
// cluster with stateless dispatch and no registry store is partitioned.
func TestShardPlannerModes(t *testing.T) {
	model := lmm.QwenVL7B()
	unmanaged := func(d DispatchPolicy) *Cluster {
		cl, err := NewClusterWithDispatch(2, d, swapConstrained(model))
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	if !unmanaged(NewRoundRobin()).partitioned() {
		t.Fatal("round-robin: want the partitioned plan")
	}
	if unmanaged(NewLeastLoaded()).partitioned() {
		t.Fatal("least-loaded: want Run")
	}
	withStore := unmanaged(NewRoundRobin())
	withStore.servers[1].opts.Store = registry.NewStore(registry.Config{}, nil)
	if withStore.partitioned() {
		t.Fatal("round-robin with a registry store: want Run")
	}
	cfg := SchedulingConfig{Tenants: tenantClasses(), FairShare: true, HighWater: 8}
	cl, err := NewManagedCluster(2, NewRoundRobin(), cfg, managedBuild(t))
	if err != nil {
		t.Fatal(err)
	}
	if cl.partitioned() {
		t.Fatal("managed round-robin: want Run")
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

// requestTimes is the per-request outcome a replay stamps into the
// trace: lifecycle phase, tokens emitted and every timestamp.
type requestTimes struct {
	ID                          int64
	Phase                       sched.Phase
	Emitted                     int
	FirstSchedule, LastSchedule time.Duration
	FirstToken, Finish          time.Duration
}

func requestOutcomes(tr workload.Trace) []requestTimes {
	out := make([]requestTimes, len(tr))
	for i, r := range tr {
		out[i] = requestTimes{r.ID, r.Phase, r.Emitted, r.FirstSchedule, r.LastSchedule, r.FirstToken, r.Finish}
	}
	return out
}

// TestPartitionedRunMatchesTimeline is the differential check on the
// partitioned drain: Run and RunSharded at every worker count must
// reproduce the shared-timeline replay (runTimeline) exactly, in the
// Report and in every request's timestamps. The cases cover
// equal-arrival ties, an unsorted trace, fleets that do not divide the
// trace evenly, a request rejected for KV capacity and a fleet too
// wide for the partitioned plan.
func TestPartitionedRunMatchesTimeline(t *testing.T) {
	model := lmm.QwenVL7B()
	defaults := func(int) (Options, error) { return SystemOptions(SystemVaLoRA, simgpu.A100(), model) }
	stress := func(n int, seed int64) func() workload.Trace {
		return func() workload.Trace { return workload.GenStress(workload.DefaultStress(n, seed)) }
	}
	cases := []struct {
		name      string
		instances int
		build     func(int) (Options, error)
		trace     func() workload.Trace
		rejects   bool
	}{
		{"stress/1", 1, defaults, stress(20000, 13), false},
		{"stress/3", 3, defaults, stress(20000, 13), false},
		{"stress/4", 4, defaults, stress(20000, 13), false},
		{"stress/9", 9, defaults, stress(20000, 13), false},
		{"skewed-swap/3", 3, swapConstrained(model), func() workload.Trace { return skewedSwapTrace(31) }, false},
		{"skewed-swap/4", 4, swapConstrained(model), func() workload.Trace { return skewedSwapTrace(31) }, false},
		{"ties-sorted/4", 4, swapConstrained(model), func() workload.Trace { return tiedShuffle(skewedSwapTrace(33), 7, true) }, false},
		{"ties-unsorted/3", 3, swapConstrained(model), func() workload.Trace { return tiedShuffle(skewedSwapTrace(33), 7, false) }, false},
		{"kv-reject/4", 4, defaults, func() workload.Trace {
			tr := workload.GenStress(workload.DefaultStress(5000, 17))
			tr[2501].InputTokens = 1 << 24 // more blocks than an empty KV cache holds
			return tr
		}, true},
		{"wide/257", 257, defaults, stress(3000, 19), false},
	}
	for _, tc := range cases {
		run := func(replay func(*Cluster, workload.Trace) (*Report, error)) (*Report, []requestTimes) {
			cl, err := NewClusterWithDispatch(tc.instances, NewRoundRobin(), tc.build)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := cl.partitioned(), tc.instances <= maxPartitionedInstances; got != want {
				t.Fatalf("%s: partitioned() = %v, want %v", tc.name, got, want)
			}
			tr := tc.trace()
			rep, err := replay(cl, tr)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			return rep, requestOutcomes(tr)
		}
		want, wantTimes := run((*Cluster).runTimeline)
		if tc.rejects != (want.Rejected > 0) {
			t.Fatalf("%s: %d requests rejected, want rejections %v", tc.name, want.Rejected, tc.rejects)
		}
		// Worker count 0 stands for Run itself, at GOMAXPROCS workers.
		for _, shards := range append([]int{0}, shardCounts...) {
			replay := func(cl *Cluster, tr workload.Trace) (*Report, error) { return cl.RunSharded(tr, shards) }
			if shards == 0 {
				replay = (*Cluster).Run
			}
			got, gotTimes := run(replay)
			label := fmt.Sprintf("%s/shards=%d", tc.name, shards)
			checkReportIdentical(t, want, got, label)
			if !reflect.DeepEqual(wantTimes, gotTimes) {
				for i := range wantTimes {
					if wantTimes[i] != gotTimes[i] {
						t.Fatalf("%s: request %d diverges\ntimeline: %+v\nsharded:  %+v", label, i, wantTimes[i], gotTimes[i])
					}
				}
			}
		}
	}
}
