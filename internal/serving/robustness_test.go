package serving

import (
	"strings"
	"testing"
	"time"

	"valora/internal/lmm"
	"valora/internal/simgpu"
	"valora/internal/workload"
)

// TestManySeedsNoError fuzzes the serving loop across seeds, systems
// and skews: every run must terminate, complete (or reject) every
// request, and keep the correctness invariant that merged iterations
// never see foreign adapters (the server returns an error from
// lora.ExtraCost if they do).
func TestManySeedsNoError(t *testing.T) {
	g := simgpu.A100()
	model := lmm.QwenVL7B()
	for seed := int64(1); seed <= 5; seed++ {
		for _, kind := range allSystems() {
			skew := 0.2 + 0.15*float64(seed)
			srv, err := NewSystem(kind, g, model)
			if err != nil {
				t.Fatal(err)
			}
			trace := workload.GenRetrieval(workload.DefaultRetrieval(5, 6*time.Second, 12, skew, seed))
			rep, err := srv.Run(trace)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, kind, err)
			}
			if rep.Completed+rep.Rejected != rep.Requests {
				t.Fatalf("seed %d %s: %d+%d != %d", seed, kind, rep.Completed, rep.Rejected, rep.Requests)
			}
		}
	}
}

// TestMixedApplicationWorkload serves retrieval and video traffic
// through one instance — the paper's multi-application scenario.
func TestMixedApplicationWorkload(t *testing.T) {
	g := simgpu.A100()
	model := lmm.QwenVL7B()
	srv, err := NewSystem(SystemVaLoRA, g, model)
	if err != nil {
		t.Fatal(err)
	}
	retrieval := workload.GenRetrieval(workload.DefaultRetrieval(3, 10*time.Second, 8, 0.6, 2))
	video := workload.GenVideo(workload.DefaultVideo(2, 10*time.Second, 8, 0.6, 3))
	mixed := workload.Merge(retrieval, video)
	rep, err := srv.Run(mixed)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != len(mixed) {
		t.Fatalf("completed %d/%d on the mixed workload", rep.Completed, len(mixed))
	}
	if rep.DeadlineTotal == 0 {
		t.Fatal("the video share must carry deadlines")
	}
}

// TestAllModelsServe runs every Table 2 model through the VaLoRA
// runtime.
func TestAllModelsServe(t *testing.T) {
	g := simgpu.A100()
	for _, model := range lmm.AllModels() {
		t.Run(model.Name, func(t *testing.T) {
			srv, err := NewSystem(SystemVaLoRA, g, model)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := srv.Run(workload.GenRetrieval(workload.DefaultRetrieval(3, 6*time.Second, 8, 0.6, 4)))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Completed != rep.Requests {
				t.Fatalf("completed %d/%d", rep.Completed, rep.Requests)
			}
		})
	}
}

// TestLatencyMonotoneInLoad checks the queueing sanity of the
// simulator: average token latency must not decrease as offered load
// rises through saturation.
func TestLatencyMonotoneInLoad(t *testing.T) {
	g := simgpu.A100()
	model := lmm.QwenVL7B()
	var prev float64
	for _, rate := range []float64{2, 6, 12} {
		srv, err := NewSystem(SystemVaLoRA, g, model)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := srv.Run(workload.GenRetrieval(workload.DefaultRetrieval(rate, 15*time.Second, 16, 0.6, 6)))
		if err != nil {
			t.Fatal(err)
		}
		if rep.AvgTokenLatency < prev {
			t.Fatalf("latency fell from %.2f to %.2f as load rose to %.0f req/s",
				prev, rep.AvgTokenLatency, rate)
		}
		prev = rep.AvgTokenLatency
	}
}

// TestSaturationThroughputPlateaus checks the simulator saturates: at
// twice the knee rate, throughput stays near the knee capacity rather
// than scaling with offered load.
func TestSaturationThroughputPlateaus(t *testing.T) {
	g := simgpu.A100()
	model := lmm.QwenVL7B()
	tput := func(rate float64) float64 {
		srv, err := NewSystem(SystemVaLoRA, g, model)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := srv.Run(workload.GenRetrieval(workload.DefaultRetrieval(rate, 20*time.Second, 16, 0.6, 8)))
		if err != nil {
			t.Fatal(err)
		}
		return rep.Throughput
	}
	at12, at24 := tput(12), tput(24)
	if at24 > 1.4*at12 {
		t.Fatalf("throughput kept scaling past saturation: %.2f -> %.2f req/s", at12, at24)
	}
}

// TestReportRejectedString sanity-checks report rendering fields used
// by operators reading logs.
func TestReportRejectedString(t *testing.T) {
	rep := &Report{System: "x", Model: "m", Requests: 2, Completed: 1, Rejected: 1,
		SimTime: time.Second, ModeIterations: map[string]int{"merge": 1}}
	if s := rep.String(); !strings.Contains(s, "x") || !strings.Contains(s, "m") {
		t.Fatalf("report string wrong: %q", s)
	}
}
