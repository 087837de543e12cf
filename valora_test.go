package valora

import (
	"testing"
	"time"
)

func TestNewDefaults(t *testing.T) {
	sys, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if sys.kind != VaLoRA || sys.model.Name != "Qwen-VL-7B" {
		t.Fatalf("defaults wrong: %v on %s", sys.kind, sys.model.Name)
	}
}

func TestServeRoundTrip(t *testing.T) {
	sys, err := New(Config{MaxBatch: 16})
	if err != nil {
		t.Fatal(err)
	}
	trace := RetrievalWorkload(3, 8*time.Second, 8, 0.6, 1)
	rep, err := sys.Serve(trace)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != len(trace) || rep.AvgTokenLatency <= 0 {
		t.Fatalf("bad report: %+v", rep)
	}
}

func TestAllSystemsServe(t *testing.T) {
	for _, kind := range []SystemKind{VaLoRA, SLoRA, Punica, DLoRA} {
		sys, err := New(Config{System: kind})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		rep, err := sys.Serve(RetrievalWorkload(2, 5*time.Second, 4, 0.6, 2))
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if rep.Completed == 0 {
			t.Fatalf("%s completed nothing", kind)
		}
	}
}

func TestVideoWorkloadServe(t *testing.T) {
	sys, err := New(Config{Model: LLaVA7B()})
	if err != nil {
		t.Fatal(err)
	}
	trace := VideoWorkload(2, 8*time.Second, 4, 0.6, 3)
	rep, err := sys.Serve(trace)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != len(trace) {
		t.Fatalf("completed %d/%d", rep.Completed, len(trace))
	}
}

func TestGenerate(t *testing.T) {
	items := []Knowledge{
		{Task: ObjectDetection, Domain: "a", Seed: 11, RequiredAcc: 0.55},
		{Task: ObjectDetection, Domain: "b", Seed: 12, RequiredAcc: 0.55},
		{Task: ObjectDetection, Domain: "c", Seed: 13, RequiredAcc: 0.55},
	}
	generated, err := Generate(QwenVL7B(), items)
	if err != nil {
		t.Fatal(err)
	}
	if len(generated) == 0 {
		t.Fatal("no adapters generated")
	}
	domains := 0
	for _, g := range generated {
		domains += len(g.Domains)
		for d, acc := range g.Accuracies {
			if acc < 0.55 {
				t.Errorf("domain %s accuracy %.2f below its floor", d, acc)
			}
		}
		if g.Adapter.Head.String() != "vision-task-head" {
			t.Error("all-detection knowledge should produce vision task heads")
		}
	}
	if domains != len(items) {
		t.Fatalf("generated adapters cover %d domains, want %d", domains, len(items))
	}
}

func TestGenerateMixedTasksKeepsLMHead(t *testing.T) {
	items := []Knowledge{
		{Task: VisualQA, Domain: "q", Seed: 21, RequiredAcc: 0.3},
	}
	generated, err := Generate(QwenVL7B(), items)
	if err != nil {
		t.Fatal(err)
	}
	if generated[0].Adapter.Head.String() != "lm-head" {
		t.Fatal("open-ended VQA must keep the LM head")
	}
}

func TestServeWithGeneratedAdapters(t *testing.T) {
	generated, err := Generate(QwenVL7B(), []Knowledge{
		{Task: ObjectDetection, Domain: "a", Seed: 31, RequiredAcc: 0.5},
		{Task: ObjectDetection, Domain: "b", Seed: 32, RequiredAcc: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	var adapters []*Adapter
	for _, g := range generated {
		adapters = append(adapters, g.Adapter)
	}
	sys, err := New(Config{Adapters: adapters})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Serve(VideoWorkload(2, 5*time.Second, len(adapters), 0.6, 4))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed == 0 {
		t.Fatal("nothing served with generated adapters")
	}
}

func TestModelConfigs(t *testing.T) {
	if QwenVL7B().Dim != 4096 || LLaVA7B().Dim != 4096 || LLaVA13B().Dim != 5120 {
		t.Fatal("Table 2 model dims drifted")
	}
}

func TestDisablePrefixCacheOption(t *testing.T) {
	sys, err := New(Config{DisablePrefixCache: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Serve(RetrievalWorkload(2, 5*time.Second, 4, 0.6, 5))
	if err != nil {
		t.Fatal(err)
	}
	if rep.PrefixHitRate != 0 {
		t.Fatal("prefix cache disabled but hits recorded")
	}
}
