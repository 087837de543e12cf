package serving

import (
	"testing"
	"time"

	"valora/internal/lmm"
	"valora/internal/lora"
	"valora/internal/sched"
	"valora/internal/simgpu"
	"valora/internal/trace"
	"valora/internal/train"
	"valora/internal/workload"
)

func shortRetrieval(seed int64) workload.Trace {
	return workload.GenRetrieval(workload.DefaultRetrieval(4, 10*time.Second, 8, 0.6, seed))
}

func TestAllSystemsCompleteTrace(t *testing.T) {
	g := simgpu.A100()
	model := lmm.QwenVL7B()
	for _, kind := range allSystems() {
		srv, err := NewSystem(kind, g, model)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		trace := shortRetrieval(42)
		rep, err := srv.Run(trace)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if rep.Completed != rep.Requests || rep.Completed != len(trace) {
			t.Fatalf("%s completed %d/%d", kind, rep.Completed, rep.Requests)
		}
		if rep.AvgTokenLatency <= 0 || rep.Throughput <= 0 || rep.SimTime <= 0 {
			t.Fatalf("%s produced degenerate metrics: %+v", kind, rep)
		}
		if rep.E2E.Count != rep.Completed || rep.TTFT.Count != rep.Completed {
			t.Fatalf("%s latency sample counts wrong", kind)
		}
		if rep.String() == "" {
			t.Fatal("report string empty")
		}
	}
}

func TestVaLoRAWinsEndToEnd(t *testing.T) {
	g := simgpu.A100()
	model := lmm.QwenVL7B()
	results := make(map[SystemKind]float64)
	for _, kind := range allSystems() {
		srv, err := NewSystem(kind, g, model)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := srv.Run(shortRetrieval(42))
		if err != nil {
			t.Fatal(err)
		}
		results[kind] = rep.AvgTokenLatency
	}
	for _, kind := range []SystemKind{SystemSLoRA, SystemPunica, SystemDLoRA} {
		if results[SystemVaLoRA] >= results[kind] {
			t.Errorf("VaLoRA (%.2f ms) should beat %s (%.2f ms)", results[SystemVaLoRA], kind, results[kind])
		}
	}
	if results[SystemDLoRA] <= results[SystemSLoRA] {
		t.Error("dLoRA should be the slowest baseline on this workload")
	}
}

func TestRunDeterministic(t *testing.T) {
	g := simgpu.A100()
	model := lmm.QwenVL7B()
	var latencies [2]float64
	for i := 0; i < 2; i++ {
		srv, err := NewSystem(SystemVaLoRA, g, model)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := srv.Run(shortRetrieval(7))
		if err != nil {
			t.Fatal(err)
		}
		latencies[i] = rep.AvgTokenLatency
	}
	if latencies[0] != latencies[1] {
		t.Fatalf("runs not deterministic: %v vs %v", latencies[0], latencies[1])
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := NewServer(Options{}); err == nil {
		t.Fatal("missing policy/operator/switcher should error")
	}
	opts, err := SystemOptions(SystemVaLoRA, simgpu.A100(), lmm.QwenVL7B())
	if err != nil {
		t.Fatal(err)
	}
	opts.MaxBatch = 0 // defaults
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	if srv.opts.MaxBatch != 32 || srv.opts.AdmitCap != 96 {
		t.Fatalf("defaults wrong: %d/%d", srv.opts.MaxBatch, srv.opts.AdmitCap)
	}
	if _, err := SystemOptions(SystemKind("nope"), simgpu.A100(), lmm.QwenVL7B()); err == nil {
		t.Fatal("unknown system should error")
	}
}

func TestKVPressurePreemption(t *testing.T) {
	opts, err := SystemOptions(SystemVaLoRA, simgpu.A100(), lmm.QwenVL7B())
	if err != nil {
		t.Fatal(err)
	}
	// A KV budget of ~90 blocks (1440 tokens) forces preemption, and
	// the occasional prompt beyond it must be rejected, not spun on.
	opts.KVBudgetBytes = 90 * lmm.BlockSize * lmm.QwenVL7B().KVBytesPerToken()
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	trace := workload.GenRetrieval(workload.DefaultRetrieval(3, 5*time.Second, 4, 0.6, 9))
	rep, err := srv.Run(trace)
	if err != nil {
		t.Fatalf("run under KV pressure failed: %v", err)
	}
	if rep.Completed+rep.Rejected != rep.Requests {
		t.Fatalf("completed %d + rejected %d != %d under KV pressure", rep.Completed, rep.Rejected, rep.Requests)
	}
	if rep.Completed == 0 {
		t.Fatal("nothing completed under KV pressure")
	}
	if rep.Preemptions == 0 {
		t.Fatal("expected preemptions under a tiny KV budget")
	}
}

func TestOversizedPromptRejected(t *testing.T) {
	opts, err := SystemOptions(SystemVaLoRA, simgpu.A100(), lmm.QwenVL7B())
	if err != nil {
		t.Fatal(err)
	}
	opts.KVBudgetBytes = 10 * lmm.BlockSize * lmm.QwenVL7B().KVBytesPerToken() // 160 tokens
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	trace := workload.Trace{&sched.Request{
		ID: 1, AdapterID: 0, App: sched.VisualRetrieval, Task: train.VisualQA,
		InputTokens: 4000, OutputTokens: 8,
	}}
	rep, err := srv.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rejected != 1 || rep.Completed != 0 {
		t.Fatalf("oversized prompt should be rejected: %+v", rep)
	}
}

// TestPromptFillingWholeCacheRejected guards the admit/preempt
// live-lock: a prompt whose allocation would consume every KV block
// leaves no headroom block for its emitted token, so it can never run
// and must be rejected — not admitted, preempted, and re-admitted
// forever.
func TestPromptFillingWholeCacheRejected(t *testing.T) {
	opts, err := SystemOptions(SystemVaLoRA, simgpu.A100(), lmm.QwenVL7B())
	if err != nil {
		t.Fatal(err)
	}
	opts.KVBudgetBytes = 10 * lmm.BlockSize * lmm.QwenVL7B().KVBytesPerToken() // 160 tokens
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	// 159 tokens of prompt: 10 blocks allocated, 0 free for headroom.
	trace := workload.Trace{&sched.Request{
		ID: 1, AdapterID: 0, App: sched.VisualRetrieval, Task: train.VisualQA,
		InputTokens: 159, OutputTokens: 4,
	}}
	rep, err := srv.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rejected != 1 || rep.Completed != 0 || rep.Preemptions != 0 {
		t.Fatalf("whole-cache prompt should be rejected without preemption churn: %+v", rep)
	}
	// A prompt with decode headroom still completes.
	srv2, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	trace2 := workload.Trace{&sched.Request{
		ID: 1, AdapterID: 0, App: sched.VisualRetrieval, Task: train.VisualQA,
		InputTokens: 100, OutputTokens: 4,
	}}
	rep2, err := srv2.Run(trace2)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Completed != 1 {
		t.Fatalf("prompt with headroom should complete: %+v", rep2)
	}
}

func TestDeadlineTracking(t *testing.T) {
	g := simgpu.A100()
	model := lmm.QwenVL7B()
	srv, err := NewSystem(SystemVaLoRA, g, model)
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.DefaultVideo(2, 10*time.Second, 4, 0.6, 3)
	rep, err := srv.Run(workload.GenVideo(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeadlineTotal != rep.Completed {
		t.Fatalf("every video request carries a deadline: %d vs %d", rep.DeadlineTotal, rep.Completed)
	}
	if rep.DeadlineMissRate() < 0 || rep.DeadlineMissRate() > 1 {
		t.Fatalf("miss rate %v out of range", rep.DeadlineMissRate())
	}
}

func TestVisionHeadBeatsLMHead(t *testing.T) {
	g := simgpu.A100()
	model := lmm.QwenVL7B()
	run := func(head train.HeadKind) float64 {
		srv, err := NewSystem(SystemVaLoRA, g, model)
		if err != nil {
			t.Fatal(err)
		}
		cfg := workload.DefaultVideo(3, 10*time.Second, 8, 0.6, 5)
		cfg.Head = head
		rep, err := srv.Run(workload.GenVideo(cfg))
		if err != nil {
			t.Fatal(err)
		}
		return rep.E2E.Mean
	}
	lm, vh := run(train.LMHead), run(train.VisionHead)
	if vh >= lm {
		t.Fatalf("vision head (%.1f ms) should beat LM head (%.1f ms)", vh, lm)
	}
	// Fig. 16 band: 41-63% reduction (allow a wider envelope here).
	if red := 1 - vh/lm; red < 0.25 {
		t.Fatalf("task head reduction %.0f%% too small", 100*red)
	}
}

func TestPrefixCacheHelps(t *testing.T) {
	g := simgpu.A100()
	model := lmm.QwenVL7B()
	// sharedRows counts the trace rows that report prefix-served
	// tokens; each must report exactly the cached image's tokens.
	sharedRows := func(rec *trace.Recorder) int {
		n := 0
		for _, row := range rec.Rows() {
			if row.SharedTokens == 0 {
				continue
			}
			if want := min(row.Images*model.VisualTokens, row.InputTokens); row.SharedTokens != want {
				t.Fatalf("request %d: trace row reports %d shared tokens, want %d", row.ID, row.SharedTokens, want)
			}
			n++
		}
		return n
	}
	run := func(cacheImgs int) (*Report, int, error) {
		opts, err := SystemOptions(SystemVaLoRA, g, model)
		if err != nil {
			return nil, 0, err
		}
		opts.PrefixCacheImages = cacheImgs
		srv, err := NewServer(opts)
		if err != nil {
			return nil, 0, err
		}
		rec := trace.NewRecorder()
		srv.SetTraceRecorder(rec)
		cfg := workload.DefaultRetrieval(4, 10*time.Second, 8, 0.6, 13)
		cfg.MultiRound = 0.6
		rep, err := srv.Run(workload.GenRetrieval(cfg))
		return rep, sharedRows(rec), err
	}
	with, withShared, err := run(512)
	if err != nil {
		t.Fatal(err)
	}
	without, withoutShared, err := run(0)
	if err != nil {
		t.Fatal(err)
	}
	if withShared == 0 || withoutShared != 0 {
		t.Fatalf("trace rows with prefix-served tokens: %d with the cache, %d without; want some, then none", withShared, withoutShared)
	}
	if with.PrefixHitRate <= 0 {
		t.Fatal("multi-round workload should produce prefix hits")
	}
	if without.PrefixHitRate != 0 {
		t.Fatal("disabled cache must not hit")
	}
	if with.AvgTokenLatency >= without.AvgTokenLatency {
		t.Fatalf("prefix caching should lower latency: %.2f vs %.2f", with.AvgTokenLatency, without.AvgTokenLatency)
	}
}

func TestSwapAccountingWithManyAdapters(t *testing.T) {
	g := simgpu.A100()
	model := lmm.QwenVL7B()
	opts, err := SystemOptions(SystemDLoRA, g, model)
	if err != nil {
		t.Fatal(err)
	}
	// Pool fits ~4 adapters; the trace uses 16.
	opts.AdapterPoolBytes = 4 * model.AdapterBytes(model.DefaultRank)
	opts.Registry = lora.NewRegistry(lora.MakeUniformAdapters(model, 16, model.DefaultRank)...)
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	trace := workload.GenRetrieval(workload.DefaultRetrieval(4, 10*time.Second, 16, 0.3, 17))
	rep, err := srv.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SwapIns == 0 || rep.SwapStall == 0 {
		t.Fatalf("expected adapter swapping: %d swap-ins, stall %v", rep.SwapIns, rep.SwapStall)
	}
}

func TestModeAccounting(t *testing.T) {
	g := simgpu.A100()
	model := lmm.QwenVL7B()
	srv, err := NewSystem(SystemVaLoRA, g, model)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := srv.Run(workload.GenRetrieval(workload.DefaultRetrieval(6, 15*time.Second, 8, 0.8, 23)))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range rep.ModeIterations {
		total += n
	}
	if total != rep.Iterations {
		t.Fatalf("mode iterations %d != total %d", total, rep.Iterations)
	}
	// A highly skewed workload must exercise merged or mixture modes.
	if rep.ModeIterations["merge"]+rep.ModeIterations["mixture"] == 0 {
		t.Fatal("skew 0.8 should trigger merged/mixture iterations")
	}
	if rep.BaseTime <= 0 {
		t.Fatal("base time accounting missing")
	}
}

func TestClusterShardingAndAggregation(t *testing.T) {
	model := lmm.QwenVL7B()
	cl, err := NewCluster(2, func(int) (Options, error) {
		return SystemOptions(SystemVaLoRA, simgpu.A100(), model)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(cl.Instances()); n != 2 {
		t.Fatalf("size = %d, want 2", n)
	}
	trace := shortRetrieval(29)
	rep, err := cl.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != len(trace) || rep.Completed != len(trace) {
		t.Fatalf("cluster completed %d/%d", rep.Completed, rep.Requests)
	}
	if rep.E2E.Count != len(trace) {
		t.Fatalf("aggregate percentile samples %d, want %d", rep.E2E.Count, len(trace))
	}
}

func TestClusterThroughputScales(t *testing.T) {
	model := lmm.QwenVL7B()
	tput := func(n int) float64 {
		cl, err := NewCluster(n, func(int) (Options, error) {
			return SystemOptions(SystemVaLoRA, simgpu.A100(), model)
		})
		if err != nil {
			t.Fatal(err)
		}
		// Saturating load scaled with the cluster.
		trace := workload.GenRetrieval(workload.DefaultRetrieval(float64(10*n), 15*time.Second, 16, 0.6, 31))
		rep, err := cl.Run(trace)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Throughput
	}
	t1, t2 := tput(1), tput(2)
	if ratio := t2 / t1; ratio < 1.5 || ratio > 2.5 {
		t.Fatalf("2-GPU scaling %.2fx out of the near-linear band", ratio)
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(0, nil); err == nil {
		t.Fatal("zero-instance cluster should error")
	}
}

func TestSharedATMMMemoized(t *testing.T) {
	g := simgpu.A100()
	model := lmm.QwenVL7B()
	a, err := sharedATMM(g, model)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sharedATMM(g, model)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("sharedATMM should memoize per GPU/model")
	}
}

func TestEmptyTrace(t *testing.T) {
	srv, err := NewSystem(SystemVaLoRA, simgpu.A100(), lmm.QwenVL7B())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := srv.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 0 || rep.Completed != 0 || rep.SimTime != 0 {
		t.Fatalf("empty trace should produce an empty report: %+v", rep)
	}
}

func TestAdmitCapBoundsWIP(t *testing.T) {
	opts, err := SystemOptions(SystemVaLoRA, simgpu.A100(), lmm.QwenVL7B())
	if err != nil {
		t.Fatal(err)
	}
	opts.AdmitCap = 8
	opts.MaxBatch = 8
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Burst of 50 simultaneous arrivals: with AdmitCap 8 the server
	// still finishes everything.
	var trace workload.Trace
	for i := 0; i < 50; i++ {
		trace = append(trace, &sched.Request{
			ID: int64(i + 1), AdapterID: i % 4, App: sched.VisualRetrieval,
			Task: train.VisualQA, InputTokens: 300, OutputTokens: 20,
		})
	}
	rep, err := srv.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 50 {
		t.Fatalf("completed %d/50 under admission control", rep.Completed)
	}
}
