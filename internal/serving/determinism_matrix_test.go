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

// The executable determinism matrix: Run and RunSharded must produce
// byte-identical serialized Reports across every combination of
// GOMAXPROCS ∈ {1, 2, 8} and shard count ∈ {Run, 1, 2, 4, 8}, against
// the sequential reference, runTimeline. GOMAXPROCS is the axis a
// scheduler-order dependence tends to hide on — one that hides at 8
// cores can surface at 1, and vice versa — and CI runs this test under
// -race, so an unsynchronized cross-instance access in the partitioned
// drain fails the job even when the output happens to match.

var matrixGOMAXPROCS = []int{1, 2, 8}
var matrixShards = []int{0, 1, 2, 4, 8}

// matrixReplay replays trace on cl: shards -1 is runTimeline, 0 is Run
// (at GOMAXPROCS workers), any other count RunSharded.
func matrixReplay(cl *Cluster, trace workload.Trace, shards int) (*Report, error) {
	switch shards {
	case -1:
		return cl.runTimeline(trace)
	case 0:
		return cl.Run(trace)
	}
	return cl.RunSharded(trace, shards)
}

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

	ref := marshalReport(t, run(-1)) // runTimeline at ambient GOMAXPROCS
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
// state-reading dispatch policy (the coupling-heavy case), which Run
// and RunSharded replay on the shared timeline at every shard count.
func TestDeterminismMatrixUnmanaged(t *testing.T) {
	model := lmm.QwenVL7B()
	runMatrix(t, "unmanaged/adapter-affinity", func(shards int) *Report {
		cl, err := NewClusterWithDispatch(4, NewAdapterAffinity(), swapConstrained(model))
		if err != nil {
			t.Fatal(err)
		}
		trace := skewedSwapTrace(23)
		rep, err := matrixReplay(cl, trace, shards)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	})
}

// TestDeterminismMatrixManaged drives the managed runner (admission,
// fair-share queueing, shedding) through the same matrix. Run and
// RunSharded replay it on the shared timeline at every shard count, so
// this pins that fallback to the reference report.
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
		rep, err := matrixReplay(cl, trace, shards)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	})
}

// TestDeterminismMatrixPartitioned drives the one parallel plan: a
// round-robin cluster, whose instances Run and RunSharded drain on
// worker goroutines, replaying a stress trace.
func TestDeterminismMatrixPartitioned(t *testing.T) {
	model := lmm.QwenVL7B()
	runMatrix(t, "unmanaged/round-robin", func(shards int) *Report {
		cl, err := NewClusterWithDispatch(4, NewRoundRobin(), swapConstrained(model))
		if err != nil {
			t.Fatal(err)
		}
		trace := workload.GenStress(workload.DefaultStress(4000, 19))
		rep, err := matrixReplay(cl, trace, shards)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	})
}
