package valora

import (
	"testing"
	"time"

	"valora/internal/bench"
	"valora/internal/lmm"
	"valora/internal/serving"
	"valora/internal/simgpu"
	"valora/internal/workload"
)

// Each benchmark regenerates one table or figure of the paper's
// evaluation through the experiment suite (quick mode keeps -bench
// runs tractable). The per-op metric is the wall time of one full
// experiment regeneration; the experiment's own findings are printed
// by cmd/valora-bench in each table's measured note.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	suite := bench.NewSuite(true)
	suite.OutDir = b.TempDir() // experiments that append records write here
	var run func() (*bench.Table, error)
	for _, e := range suite.All() {
		if e.ID == id {
			run = e.Run
		}
	}
	if run == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(); err != nil {
			b.Fatal(err)
		}
	}
}

// §3.1 motivation experiments.
func BenchmarkFig03ZeroShot(b *testing.B)          { benchExperiment(b, "fig03") }
func BenchmarkFig04LoRAGain(b *testing.B)          { benchExperiment(b, "fig04") }
func BenchmarkFig05FusionCapacity(b *testing.B)    { benchExperiment(b, "fig05") }
func BenchmarkFig10FusionWalkthrough(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkSwapLatency(b *testing.B)            { benchExperiment(b, "swap") }

// §3.2 challenge measurements.
func BenchmarkFig06UnmergedOverhead(b *testing.B) { benchExperiment(b, "fig06") }
func BenchmarkFig07SwitchCost(b *testing.B)       { benchExperiment(b, "fig07") }

// §4.3 ATMM.
func BenchmarkTable1AdaptiveTiling(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkFig12TileAnalysis(b *testing.B)    { benchExperiment(b, "fig12") }
func BenchmarkTilingSearch(b *testing.B)         { benchExperiment(b, "search") }

// §6.2 end-to-end evaluation.
func BenchmarkFig14EndToEnd(b *testing.B) { benchExperiment(b, "fig14") }
func BenchmarkFig15Accuracy(b *testing.B) { benchExperiment(b, "fig15") }

// §6.3 component analysis.
func BenchmarkFig16TaskHead(b *testing.B)          { benchExperiment(b, "fig16") }
func BenchmarkFig17OperatorLatency(b *testing.B)   { benchExperiment(b, "fig17") }
func BenchmarkFig18OperatorStability(b *testing.B) { benchExperiment(b, "fig18") }
func BenchmarkFig19Scheduler(b *testing.B)         { benchExperiment(b, "fig19") }
func BenchmarkFig20MixtureMode(b *testing.B)       { benchExperiment(b, "fig20") }
func BenchmarkFig21SwiftSwitch(b *testing.B)       { benchExperiment(b, "fig21") }
func BenchmarkSwitcher(b *testing.B)               { benchExperiment(b, "switcher") }

// §6.4 stability and scalability.
func BenchmarkFig22SkewE2E(b *testing.B)      { benchExperiment(b, "fig22") }
func BenchmarkFig23AdapterCount(b *testing.B) { benchExperiment(b, "fig23") }
func BenchmarkTable3MultiGPU(b *testing.B)    { benchExperiment(b, "table3") }
func BenchmarkFig24PrefixCache(b *testing.B)  { benchExperiment(b, "fig24") }

// Cluster serving: one full shared-timeline replay per op across 1, 2
// and 4 instances (load scaled with the cluster), tracking cluster
// throughput as the perf trajectory of the event-driven core.
func benchmarkClusterServe(b *testing.B, instances int) {
	b.Helper()
	model := lmm.QwenVL7B()
	for i := 0; i < b.N; i++ {
		cl, err := serving.NewClusterWithDispatch(instances, serving.NewRoundRobin(), func(int) (serving.Options, error) {
			return serving.SystemOptions(serving.SystemVaLoRA, simgpu.A100(), model)
		})
		if err != nil {
			b.Fatal(err)
		}
		trace := workload.GenRetrieval(workload.DefaultRetrieval(float64(8*instances), 10*time.Second, 16, 0.6, 42))
		rep, err := cl.Run(trace)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.Throughput, "req/s")
	}
}

func BenchmarkClusterServe1(b *testing.B) { benchmarkClusterServe(b, 1) }
func BenchmarkClusterServe2(b *testing.B) { benchmarkClusterServe(b, 2) }
func BenchmarkClusterServe4(b *testing.B) { benchmarkClusterServe(b, 4) }

// Cluster dispatch-policy experiment (shared timeline, Table 3's
// successor).
func BenchmarkClusterDispatch(b *testing.B) { benchExperiment(b, "cluster-dispatch") }

// Simulator stress scenario (quick size; the full 1M-request run backs
// BENCH_serving.json via `valora-bench -id million-requests`). The
// trajectory artifact goes to a temp dir so `go test -bench` stays
// side-effect free.
func BenchmarkMillionRequestsQuick(b *testing.B) {
	suite := bench.NewSuite(true)
	suite.OutDir = b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := suite.MillionRequests(); err != nil {
			b.Fatal(err)
		}
	}
}

// Design-choice ablations (README "Experiments").
func BenchmarkAblationStaticTiling(b *testing.B) { benchExperiment(b, "ablation-tiling") }
func BenchmarkAblationNoMixture(b *testing.B)    { benchExperiment(b, "ablation-mixture") }
func BenchmarkAblationSlowSwitch(b *testing.B)   { benchExperiment(b, "ablation-switch") }
func BenchmarkAblationMemory(b *testing.B)       { benchExperiment(b, "ablation-memory") }
