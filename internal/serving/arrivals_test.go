package serving

import (
	"bytes"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"valora/internal/lmm"
	"valora/internal/simgpu"
	"valora/internal/workload"
)

// tiedShuffle quantizes a trace's arrivals to 100 ms, so many requests
// share an arrival time, and shuffles it; sorted additionally applies a
// stable sort by arrival, the order every engine replays.
func tiedShuffle(tr workload.Trace, seed int64, sorted bool) workload.Trace {
	for _, r := range tr {
		r.Arrival = r.Arrival.Truncate(100 * time.Millisecond)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(tr), func(i, j int) { tr[i], tr[j] = tr[j], tr[i] })
	if sorted {
		sort.SliceStable(tr, func(i, j int) bool { return tr[i].Arrival < tr[j].Arrival })
	}
	return tr
}

// TestUnsortedTraceMatchesStableSort pins the arrival-order contract:
// an unsorted trace with equal-arrival ties replays exactly like its
// stably sorted copy, through the unmanaged and the managed engines.
func TestUnsortedTraceMatchesStableSort(t *testing.T) {
	model := lmm.QwenVL7B()
	unmanaged := func(tr workload.Trace) *Report {
		cl, err := NewClusterWithDispatch(4, NewAdapterAffinity(), swapConstrained(model))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := cl.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	managed := func(tr workload.Trace) *Report {
		cfg := SchedulingConfig{Tenants: tenantClasses(), FairShare: true, HighWater: 4}
		cl, err := NewManagedCluster(2, NewLeastLoaded(), cfg, managedBuild(t))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := cl.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	cases := []struct {
		name string
		gen  func() workload.Trace
		run  func(workload.Trace) *Report
	}{
		{"unmanaged", func() workload.Trace { return skewedSwapTrace(29) }, unmanaged},
		{"managed", func() workload.Trace {
			return workload.GenMultiTenant(workload.DefaultMultiTenant(6*time.Second, 3, 41))
		}, managed},
	}
	for _, c := range cases {
		unsorted := tiedShuffle(c.gen(), 5, false)
		if sort.SliceIsSorted(unsorted, func(i, j int) bool { return unsorted[i].Arrival < unsorted[j].Arrival }) {
			t.Fatalf("%s: shuffled trace is already sorted", c.name)
		}
		got := marshalReport(t, c.run(unsorted))
		want := marshalReport(t, c.run(tiedShuffle(c.gen(), 5, true)))
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: unsorted trace diverges from its stable sort\nsorted:\n%s\nunsorted:\n%s", c.name, want, got)
		}
	}
}

// TestClusterRunAllocsPerRequest is the allocation gate on the
// unmanaged replay path: the arrival cursor, recycled KV sequence
// records and the reused batch-group scratch keep a GenStress replay
// under 1.5 heap allocations per request. Unlike wall time, the count
// is deterministic, so a regression fails here rather than in a
// profile.
func TestClusterRunAllocsPerRequest(t *testing.T) {
	const n = 20000
	tr := workload.GenStress(workload.DefaultStress(n, 3))
	cl, err := NewCluster(4, func(int) (Options, error) {
		return SystemOptions(SystemVaLoRA, simgpu.A100(), lmm.QwenVL7B())
	})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := cl.Run(tr); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.Mallocs-before.Mallocs) / n; per > 1.5 {
		t.Fatalf("Cluster.Run made %.2f allocs per request, want <= 1.5", per)
	} else {
		t.Logf("Cluster.Run: %.2f allocs per request", per)
	}
}
