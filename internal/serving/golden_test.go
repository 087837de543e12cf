package serving

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
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

// goldenFile pins the sha256 of fmt.Sprintf("%+v", *report) for a
// fixed set of quick runs. Engine refactors that must not move virtual
// outputs (dense indices, recycled records, counter layouts) are
// checked against it; a digest that changes on purpose is regenerated
// with -update-golden and the reason recorded in the change log.
const goldenFile = "testdata/golden_reports.txt"

var updateGolden = flag.Bool("update-golden", false, "rewrite "+goldenFile+" from the current engine")

// goldenRuns are the pinned configurations: every engine path whose
// per-iteration bookkeeping is keyed by adapter or request identity.
var goldenRuns = []struct {
	name string
	run  func(t *testing.T) *Report
}{
	{"unmanaged/round-robin-stress", func(t *testing.T) *Report {
		cl := goldenCluster(t, NewRoundRobin())
		return mustReport(t)(cl.Run(workload.GenStress(workload.DefaultStress(20000, 11))))
	}},
	{"unmanaged/round-robin-stress/partitioned-2", func(t *testing.T) *Report {
		cl := goldenCluster(t, NewRoundRobin())
		return mustReport(t)(cl.runPartitioned(workload.GenStress(workload.DefaultStress(20000, 11)), 2))
	}},
	{"unmanaged/adapter-affinity/swap-constrained", func(t *testing.T) *Report {
		cl, err := NewClusterWithDispatch(4, NewAdapterAffinity(), swapConstrained(lmm.QwenVL7B()))
		if err != nil {
			t.Fatal(err)
		}
		return mustReport(t)(cl.Run(skewedSwapTrace(23)))
	}},
	{"managed/fair-share/preempt-migrate", func(t *testing.T) *Report {
		// Two instances under adversarial deadlines: victims migrate
		// between instances that met their adapters in different orders.
		return mustReport(t)(preemptCluster(t, 2).Run(adversarialTrace(7, 600)))
	}},
	{"managed/fair-share/preempt-mix", func(t *testing.T) *Report {
		// The preemption-tail shape: realtime beside long batch decodes
		// at ~1.5x load, displacement through the fair-share queue.
		build := func(int) (Options, error) {
			opts, err := SystemOptions(SystemVaLoRA, simgpu.A100(), lmm.QwenVL7B())
			if err != nil {
				return Options{}, err
			}
			p := sched.NewVaLoRAPolicy()
			p.Preempt, p.DeadlineCredit = true, true
			opts.Policy = p
			opts.AdmitCap = 48
			opts.Preemption = &PreemptionConfig{MaxPreemptions: 2}
			return opts, nil
		}
		cfg := SchedulingConfig{
			Tenants:         workload.PreemptTenantClasses(),
			FairShare:       true,
			HighWater:       192,
			EstimateService: ServiceFloor(simgpu.A100(), lmm.QwenVL7B()),
		}
		cl, err := NewManagedCluster(2, NewLeastLoaded(), cfg, build)
		if err != nil {
			t.Fatal(err)
		}
		return mustReport(t)(cl.Run(workload.GenMultiTenant(workload.DefaultPreemptMix(20*time.Second, 2, 42))))
	}},
	{"managed/fleet-registry/chunked-prefetch", goldenFleet},
	{"baseline/merge-only", func(t *testing.T) *Report {
		opts, err := SystemOptions(SystemVaLoRA, simgpu.A100(), lmm.QwenVL7B())
		if err != nil {
			t.Fatal(err)
		}
		opts.Policy = &sched.MergeOnlyPolicy{}
		opts.Name = "merge-only"
		srv, err := NewServer(opts)
		if err != nil {
			t.Fatal(err)
		}
		return mustReport(t)(srv.Run(workload.GenRetrieval(workload.DefaultRetrieval(6, 10*time.Second, 8, 0.6, 3))))
	}},
	{"baseline/dLoRA", func(t *testing.T) *Report {
		srv, err := NewSystem(SystemDLoRA, simgpu.A100(), lmm.QwenVL7B())
		if err != nil {
			t.Fatal(err)
		}
		return mustReport(t)(srv.Run(workload.GenRetrieval(workload.DefaultRetrieval(6, 10*time.Second, 8, 0.6, 3))))
	}},
	{"baseline/S-LoRA/video", func(t *testing.T) *Report {
		srv, err := NewSystem(SystemSLoRA, simgpu.A100(), lmm.QwenVL7B())
		if err != nil {
			t.Fatal(err)
		}
		return mustReport(t)(srv.Run(workload.GenVideo(workload.DefaultVideo(4, 5*time.Second, 8, 0.6, 9))))
	}},
}

func mustReport(t *testing.T) func(*Report, error) *Report {
	return func(rep *Report, err error) *Report {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
}

// goldenCluster is four default VaLoRA instances behind dispatch.
func goldenCluster(t *testing.T, dispatch DispatchPolicy) *Cluster {
	cl, err := NewClusterWithDispatch(4, dispatch, func(int) (Options, error) {
		return SystemOptions(SystemVaLoRA, simgpu.A100(), lmm.QwenVL7B())
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// goldenFleet is a small fleet-cold-start row: family adapters behind a
// chunked host tier with prefetch, so demand fetches, dedup and the
// awaiting-fetch bookkeeping all run.
func goldenFleet(t *testing.T) *Report {
	cl, tr := goldenFleetCluster(t)
	return mustReport(t)(cl.Run(tr))
}

// goldenFleetCluster builds goldenFleet's managed cluster and trace.
func goldenFleetCluster(t testing.TB) (*Cluster, workload.Trace) {
	model := lmm.QwenVL7B()
	fcfg := workload.DefaultFleet(6, 10, 4, 12*time.Second, 3)
	fcfg.Tenants = []string{"a", "b"}
	fcfg.SweepLen = 3
	adapters := lora.MakeUniformAdapters(model, fcfg.AdapterCount(), model.DefaultRank)
	ab := adapters[0].Bytes()
	familyOf := func(id int) (string, int64) { return fcfg.FamilyOf(id), ab * 5 / 8 }
	store := registry.NewStore(registry.Config{
		HostCapacity:    int64(12) * ab,
		RemoteLatency:   5 * time.Millisecond,
		RemoteBandwidth: 2.5e9,
		ChunkSize:       ab / 32,
	}, registry.CatalogFromFamilies(adapters, fcfg.TenantOf, familyOf))
	build := func(int) (Options, error) {
		opts, err := SystemOptions(SystemVaLoRA, simgpu.A100(), model)
		if err != nil {
			return Options{}, err
		}
		opts.Registry = lora.NewRegistry(adapters...)
		opts.AdapterPoolBytes = 6 * ab
		opts.Store = store
		return opts, nil
	}
	cfg := SchedulingConfig{
		Tenants:           []sched.TenantConfig{{Name: "a", Weight: 2}, {Name: "b", Weight: 1}},
		FairShare:         true,
		HighWater:         4,
		Store:             store,
		PrefetchLookahead: 4,
		FamilyWarm:        2,
	}
	cl, err := NewManagedCluster(2, NewLeastLoaded(), cfg, build)
	if err != nil {
		t.Fatal(err)
	}
	tr := workload.GenFleet(fcfg)
	workload.MarkColdCandidates(tr, 2*time.Second)
	return cl, tr
}

func reportDigest(rep *Report) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", *rep)))
	return hex.EncodeToString(sum[:])
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatalf("reading golden digests (regenerate with -update-golden): %v", err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, digest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		want[name] = strings.TrimSpace(digest)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestGoldenReportDigests asserts every pinned run's Report is
// byte-for-byte what the committed digests record.
func TestGoldenReportDigests(t *testing.T) {
	if *updateGolden {
		var b strings.Builder
		b.WriteString("# sha256 of fmt.Sprintf(\"%+v\", *report); regenerate with go test -run TestGoldenReportDigests -update-golden\n")
		for _, g := range goldenRuns {
			fmt.Fprintf(&b, "%s %s\n", g.name, reportDigest(g.run(t)))
		}
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t)
	if len(want) != len(goldenRuns) {
		t.Fatalf("%s pins %d runs, the test defines %d", goldenFile, len(want), len(goldenRuns))
	}
	for _, g := range goldenRuns {
		t.Run(g.name, func(t *testing.T) {
			rep := g.run(t)
			if got := reportDigest(rep); got != want[g.name] {
				t.Fatalf("report digest %s, golden %s; report:\n%+v", got, want[g.name], *rep)
			}
		})
	}
}
