package serving

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"valora/internal/lmm"
	"valora/internal/workload"
)

// The executable determinism matrix: RunSharded must produce
// byte-identical serialized Reports across every combination of
// GOMAXPROCS ∈ {1, 2, 8} and shard count ∈ {1, 2, 4, 8}, against a
// sequential reference. GOMAXPROCS is the axis a scheduler-order
// dependence tends to hide on — one that hides at 8 cores can surface
// at 1, and vice versa — and CI runs this test under -race, so an
// unsynchronized cross-instance access in the partitioned drain fails
// the job even when the output happens to match.

var matrixGOMAXPROCS = []int{1, 2, 8}
var matrixShards = []int{1, 2, 4, 8}

// marshalReport serializes a Report canonically (JSON with sorted map
// keys, indented for a readable diff on failure).
func marshalReport(t *testing.T, rep *Report) []byte {
	t.Helper()
	b, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		t.Fatalf("marshaling report: %v", err)
	}
	return b
}

func runMatrix(t *testing.T, label string, run func(shards int) *Report) {
	t.Helper()
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	ref := marshalReport(t, run(0)) // sequential reference at ambient GOMAXPROCS
	for _, gmp := range matrixGOMAXPROCS {
		runtime.GOMAXPROCS(gmp)
		for _, shards := range matrixShards {
			got := marshalReport(t, run(shards))
			if !bytes.Equal(ref, got) {
				t.Fatalf("%s: GOMAXPROCS=%d shards=%d diverges from sequential\nsequential:\n%s\nsharded:\n%s",
					label, gmp, shards, ref, got)
			}
		}
	}
}

// TestDeterminismMatrixUnmanaged drives an unmanaged cluster with a
// state-reading dispatch policy (the coupling-heavy case), which
// RunSharded runs with Run at every shard count.
func TestDeterminismMatrixUnmanaged(t *testing.T) {
	model := lmm.QwenVL7B()
	runMatrix(t, "unmanaged/adapter-affinity", func(shards int) *Report {
		cl, err := NewClusterWithDispatch(4, NewAdapterAffinity(), swapConstrained(model))
		if err != nil {
			t.Fatal(err)
		}
		trace := skewedSwapTrace(23)
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
	})
}

// TestDeterminismMatrixManaged drives the managed runner (admission,
// fair-share queueing, shedding) through the same matrix. RunSharded
// runs it with Run at every shard count, so this pins that fallback to
// the reference report.
func TestDeterminismMatrixManaged(t *testing.T) {
	runMatrix(t, "managed/fair-share", func(shards int) *Report {
		cfg := SchedulingConfig{
			Tenants:   tenantClasses(),
			FairShare: true,
			HighWater: 4,
		}
		cl, err := NewManagedCluster(2, NewLeastLoaded(), cfg, managedBuild(t))
		if err != nil {
			t.Fatal(err)
		}
		trace := workload.GenMultiTenant(workload.DefaultMultiTenant(6*time.Second, 3, 37))
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
	})
}

// TestDeterminismMatrixPartitioned drives the one parallel plan: a
// round-robin cluster, whose instances RunSharded drains on worker
// goroutines, replaying a stress trace.
func TestDeterminismMatrixPartitioned(t *testing.T) {
	model := lmm.QwenVL7B()
	runMatrix(t, "unmanaged/round-robin", func(shards int) *Report {
		cl, err := NewClusterWithDispatch(4, NewRoundRobin(), swapConstrained(model))
		if err != nil {
			t.Fatal(err)
		}
		trace := workload.GenStress(workload.DefaultStress(4000, 19))
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
	})
}
