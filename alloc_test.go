package valora

import (
	"runtime"
	"testing"

	"valora/internal/lmm"
	"valora/internal/serving"
	"valora/internal/simgpu"
	"valora/internal/workload"
)

// maxStressBytesPerRequest bounds the bytes the simulator allocates
// per request while replaying the quick million-requests stress trace.
// Measured at 62 B/request (Go 1.24, linux/amd64); the bound is about
// twice that.
const maxStressBytesPerRequest = 128

// TestStressBytesPerRequest replays 50k GenStress requests through a
// 4-instance round-robin cluster and fails when the replay allocates
// more than maxStressBytesPerRequest per request. Short runs are where
// per-run fixed costs, such as preallocated latency buffers, show up.
func TestStressBytesPerRequest(t *testing.T) {
	const n = 50_000
	model := lmm.QwenVL7B()
	trace := workload.GenStress(workload.DefaultStress(n, 42))
	cl, err := serving.NewClusterWithDispatch(4, serving.NewRoundRobin(), func(int) (serving.Options, error) {
		return serving.SystemOptions(serving.SystemVaLoRA, simgpu.A100(), model)
	})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := cl.Run(trace)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed+rep.Rejected != n {
		t.Fatalf("replay lost requests: %d completed + %d rejected of %d", rep.Completed, rep.Rejected, n)
	}
	perReq := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%.0f B/request over %d requests", perReq, n)
	if perReq > maxStressBytesPerRequest {
		t.Errorf("replay allocated %.0f B/request, want <= %d", perReq, maxStressBytesPerRequest)
	}
}
