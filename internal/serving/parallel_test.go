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

// The partitioned drain's acceptance gate: for every configuration,
// Run is bit-identical to the shared-timeline reference, runTimeline —
// reflect.DeepEqual on the whole Report, not a tolerance check — and on
// partitioned clusters so is the drain at every explicit worker count,
// across seeds and dispatch policies. Traces are regenerated per run
// (requests mutate in place) and clusters are rebuilt per run
// (dispatch policies carry state).

// workerCounts are the explicit widths the partitioned drain is
// checked at, beside Run's own runtime.GOMAXPROCS(0).
var workerCounts = []int{1, 2, 4, 8}

// replayAt replays trace on cl: width -1 is the shared-timeline
// reference, 0 is Run, and any other width the partitioned drain on
// that many workers, which only a partitioned cluster may take.
func replayAt(cl *Cluster, trace workload.Trace, width int) (*Report, error) {
	switch {
	case width < 0:
		return cl.runTimeline(trace)
	case width == 0:
		return cl.Run(trace)
	case !cl.partitioned():
		return nil, fmt.Errorf("serving: %d workers on a cluster that is not partitioned", width)
	}
	return cl.runPartitioned(trace, width)
}

// widthsFor lists the replays that must reproduce the reference: Run,
// plus the drain at every workerCounts width when cl is partitioned.
func widthsFor(cl *Cluster) []int {
	if cl.partitioned() {
		return append([]int{0}, workerCounts...)
	}
	return []int{0}
}

func checkReportIdentical(t *testing.T, want, got *Report, label string) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: report diverges from the shared timeline\ntimeline: %+v\ngot:      %+v", label, want, got)
	}
}

// TestShardedUnmanagedBitIdentical covers both unmanaged plans: the
// partitioned drain (round-robin, stateless) and the shared timeline
// (policies that read live instance state), each against runTimeline.
func TestShardedUnmanagedBitIdentical(t *testing.T) {
	model := lmm.QwenVL7B()
	policies := []struct {
		name        string
		mk          func() DispatchPolicy
		partitioned bool
	}{
		{"round-robin", func() DispatchPolicy { return NewRoundRobin() }, true},
		{"least-loaded", func() DispatchPolicy { return NewLeastLoaded() }, false},
		{"adapter-affinity", func() DispatchPolicy { return NewAdapterAffinity() }, false},
		{"tenant-affinity", func() DispatchPolicy { return NewTenantAffinity(nil) }, false},
	}
	for _, pol := range policies {
		for _, seed := range []int64{7, 51} {
			build := func() *Cluster {
				cl, err := NewClusterWithDispatch(4, pol.mk(), swapConstrained(model))
				if err != nil {
					t.Fatal(err)
				}
				return cl
			}
			cl := build()
			if cl.partitioned() != pol.partitioned {
				t.Fatalf("%s: partitioned() = %v, want %v", pol.name, cl.partitioned(), pol.partitioned)
			}
			run := func(width int) *Report {
				rep, err := replayAt(build(), skewedSwapTrace(seed), width)
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			want := run(-1)
			for _, width := range widthsFor(cl) {
				checkReportIdentical(t, want, run(width),
					fmt.Sprintf("%s/seed=%d/workers=%d", pol.name, seed, width))
			}
		}
	}
}

// TestShardedManagedBitIdentical replays the managed runner (admission,
// fair-share and FIFO queueing, deadline shedding, backpressure), which
// is never partitioned, and checks Run's report matches runTimeline's.
func TestShardedManagedBitIdentical(t *testing.T) {
	for _, fair := range []bool{true, false} {
		for _, seed := range []int64{11, 42} {
			run := func(width int) *Report {
				cfg := SchedulingConfig{
					Tenants:   tenantClasses(),
					FairShare: fair,
					HighWater: 4,
				}
				cl, err := NewManagedCluster(2, NewLeastLoaded(), cfg, managedBuild(t))
				if err != nil {
					t.Fatal(err)
				}
				if cl.partitioned() {
					t.Fatal("managed cluster: planner chose the partitioned plan")
				}
				trace := workload.GenMultiTenant(workload.DefaultMultiTenant(6*time.Second, 3, seed))
				rep, err := replayAt(cl, trace, width)
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			want := run(-1)
			if want.Shed == 0 {
				t.Fatalf("fair=%v seed=%d: workload never exercises admission shedding", fair, seed)
			}
			checkReportIdentical(t, want, run(0), fmt.Sprintf("managed/fair=%v/seed=%d", fair, seed))
		}
	}
}

// TestShardedCoupledConfigsDelegate pins the planner's conservative
// side: state-reading dispatch (least-loaded, adapter and tenant
// affinity), managed admission, preemption, autoscaling and the shared
// registry store couple instances, so Run must replay them on the
// shared timeline and match runTimeline's report.
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
		want, err := seq.runTimeline(trace)
		if err != nil {
			t.Fatalf("%s timeline: %v", tc.name, err)
		}
		cl, trace = tc.build()
		got, err := cl.Run(trace)
		if err != nil {
			t.Fatalf("%s Run: %v", tc.name, err)
		}
		checkReportIdentical(t, want, got, tc.name)
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

// TestRunShardedValidation covers the partitioned drain's worker-count
// handling: a count below one still drains every instance on the
// calling goroutine, and counts beyond the fleet clamp instead of
// failing. Both must reproduce Run.
func TestRunShardedValidation(t *testing.T) {
	model := lmm.QwenVL7B()
	build := func() *Cluster {
		cl, err := NewClusterWithDispatch(2, NewRoundRobin(), swapConstrained(model))
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	if !build().partitioned() {
		t.Fatal("unmanaged round-robin on a store-less fleet: want partitioned")
	}
	want, err := build().Run(skewedSwapTrace(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 64} {
		got, err := build().runPartitioned(skewedSwapTrace(3), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		checkReportIdentical(t, want, got, fmt.Sprintf("workers=%d", workers))
	}
}

// TestPartitionedRunMatchesTimeline is the differential check on the
// partitioned drain: Run and the drain at every worker count must
// reproduce the shared-timeline replay (runTimeline) exactly, in the
// Report and in every request's timestamps. The cases cover
// equal-arrival ties, an unsorted trace, fleets that do not divide the
// trace evenly, more workers than instances, a request rejected for KV
// capacity and a fleet too wide for the partitioned plan (checked
// through Run alone).
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
		// wider adds a worker count past workerCounts: more workers
		// than instances must clamp, not fail.
		wider int
	}{
		{"stress/1", 1, defaults, stress(20000, 13), false, 0},
		{"stress/3", 3, defaults, stress(20000, 13), false, 64},
		{"stress/4", 4, defaults, stress(20000, 13), false, 0},
		{"stress/9", 9, defaults, stress(20000, 13), false, 0},
		{"skewed-swap/3", 3, swapConstrained(model), func() workload.Trace { return skewedSwapTrace(31) }, false, 0},
		{"skewed-swap/4", 4, swapConstrained(model), func() workload.Trace { return skewedSwapTrace(31) }, false, 0},
		{"ties-sorted/4", 4, swapConstrained(model), func() workload.Trace { return tiedShuffle(skewedSwapTrace(33), 7, true) }, false, 0},
		{"ties-unsorted/3", 3, swapConstrained(model), func() workload.Trace { return tiedShuffle(skewedSwapTrace(33), 7, false) }, false, 0},
		{"kv-reject/4", 4, defaults, func() workload.Trace {
			tr := workload.GenStress(workload.DefaultStress(5000, 17))
			tr[2501].InputTokens = 1 << 24 // more blocks than an empty KV cache holds
			return tr
		}, true, 0},
		{"wide/257", 257, defaults, stress(3000, 19), false, 0},
	}
	for _, tc := range cases {
		build := func() *Cluster {
			cl, err := NewClusterWithDispatch(tc.instances, NewRoundRobin(), tc.build)
			if err != nil {
				t.Fatal(err)
			}
			return cl
		}
		run := func(width int) (*Report, []requestTimes) {
			tr := tc.trace()
			rep, err := replayAt(build(), tr, width)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			return rep, requestOutcomes(tr)
		}
		cl := build()
		if got, want := cl.partitioned(), tc.instances <= maxPartitionedInstances; got != want {
			t.Fatalf("%s: partitioned() = %v, want %v", tc.name, got, want)
		}
		want, wantTimes := run(-1)
		if tc.rejects != (want.Rejected > 0) {
			t.Fatalf("%s: %d requests rejected, want rejections %v", tc.name, want.Rejected, tc.rejects)
		}
		widths := widthsFor(cl)
		if tc.wider > 0 {
			widths = append(widths, tc.wider)
		}
		for _, width := range widths {
			got, gotTimes := run(width)
			label := fmt.Sprintf("%s/workers=%d", tc.name, width)
			checkReportIdentical(t, want, got, label)
			if !reflect.DeepEqual(wantTimes, gotTimes) {
				for i := range wantTimes {
					if wantTimes[i] != gotTimes[i] {
						t.Fatalf("%s: request %d diverges\ntimeline: %+v\ngot:      %+v", label, i, wantTimes[i], gotTimes[i])
					}
				}
			}
		}
	}
}
