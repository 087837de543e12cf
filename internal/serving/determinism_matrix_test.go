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

// The executable determinism matrix: Run, and on a partitioned cluster
// the drain at every explicit worker count ∈ {1, 2, 4, 8}, must produce
// byte-identical serialized Reports at every GOMAXPROCS ∈ {1, 2, 8},
// against the sequential reference, runTimeline. GOMAXPROCS is the
// axis a scheduler-order dependence tends to hide on — one that hides
// at 8 cores can surface at 1, and vice versa — and CI runs this test
// under -race, so an unsynchronized cross-instance access in the
// partitioned drain fails the job even when the output happens to
// match.

var matrixGOMAXPROCS = []int{1, 2, 8}

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

// runMatrix replays build's cluster and trace (fresh each time) through
// the matrix. partitioned is the plan the cluster must take.
func runMatrix(t *testing.T, label string, partitioned bool, build func() (*Cluster, workload.Trace)) {
	t.Helper()
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	replay := func(width int) []byte {
		cl, trace := build()
		rep, err := replayAt(cl, trace, width)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return marshalReport(t, rep)
	}
	cl, _ := build()
	if cl.partitioned() != partitioned {
		t.Fatalf("%s: partitioned() = %v, want %v", label, cl.partitioned(), partitioned)
	}
	ref := replay(-1) // runTimeline at ambient GOMAXPROCS
	for _, gmp := range matrixGOMAXPROCS {
		runtime.GOMAXPROCS(gmp)
		for _, width := range widthsFor(cl) {
			got := replay(width)
			if !bytes.Equal(ref, got) {
				t.Fatalf("%s: GOMAXPROCS=%d workers=%d diverges from sequential\nsequential:\n%s\ngot:\n%s",
					label, gmp, width, ref, got)
			}
		}
	}
}

// TestDeterminismMatrixUnmanaged drives an unmanaged cluster with a
// state-reading dispatch policy (the coupling-heavy case), which Run
// replays on the shared timeline.
func TestDeterminismMatrixUnmanaged(t *testing.T) {
	model := lmm.QwenVL7B()
	runMatrix(t, "unmanaged/adapter-affinity", false, func() (*Cluster, workload.Trace) {
		cl, err := NewClusterWithDispatch(4, NewAdapterAffinity(), swapConstrained(model))
		if err != nil {
			t.Fatal(err)
		}
		return cl, skewedSwapTrace(23)
	})
}

// TestDeterminismMatrixManaged drives the managed runner (admission,
// fair-share queueing, shedding) through the same matrix. Run replays
// it on the shared timeline, so this pins that path to the reference
// report. The store-backed fleet case runs fast-forward windows beside
// a registry store that every instance shares.
func TestDeterminismMatrixManaged(t *testing.T) {
	runMatrix(t, "managed/fleet-registry", false, func() (*Cluster, workload.Trace) {
		return goldenFleetCluster(t)
	})
	runMatrix(t, "managed/fair-share", false, func() (*Cluster, workload.Trace) {
		cfg := SchedulingConfig{
			Tenants:   tenantClasses(),
			FairShare: true,
			HighWater: 4,
		}
		cl, err := NewManagedCluster(2, NewLeastLoaded(), cfg, managedBuild(t))
		if err != nil {
			t.Fatal(err)
		}
		return cl, workload.GenMultiTenant(workload.DefaultMultiTenant(6*time.Second, 3, 37))
	})
}

// TestDeterminismMatrixPartitioned drives the one parallel plan: a
// round-robin cluster, whose instances Run and the explicit-width
// drain replay on worker goroutines, replaying a stress trace.
func TestDeterminismMatrixPartitioned(t *testing.T) {
	model := lmm.QwenVL7B()
	runMatrix(t, "unmanaged/round-robin", true, func() (*Cluster, workload.Trace) {
		cl, err := NewClusterWithDispatch(4, NewRoundRobin(), swapConstrained(model))
		if err != nil {
			t.Fatal(err)
		}
		return cl, workload.GenStress(workload.DefaultStress(4000, 19))
	})
}
