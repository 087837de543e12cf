package valora_test

import (
	"fmt"
	"time"

	"valora"
)

// ExampleNew serves a small visual-retrieval workload with the VaLoRA
// runtime on a simulated A100 and checks every request completed.
func ExampleNew() {
	sys, err := valora.New(valora.Config{})
	if err != nil {
		fmt.Println(err)
		return
	}
	trace := valora.RetrievalWorkload(3, 5*time.Second, 8, 0.6, 1)
	report, err := sys.Serve(trace)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("all completed:", report.Completed == len(trace))
	fmt.Println("has latency:", report.AvgTokenLatency > 0)
	// Output:
	// all completed: true
	// has latency: true
}

// ExampleGenerate integrates two detection domains into LoRA adapters
// with the accuracy-aware knowledge-fusion algorithm.
func ExampleGenerate() {
	generated, err := valora.Generate(valora.QwenVL7B(), []valora.Knowledge{
		{Task: valora.ObjectDetection, Domain: "vehicles", Seed: 11, RequiredAcc: 0.5},
		{Task: valora.ObjectDetection, Domain: "signs", Seed: 12, RequiredAcc: 0.5},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	total := 0
	for _, g := range generated {
		total += len(g.Domains)
	}
	fmt.Println("domains covered:", total)
	fmt.Println("adapters have vision heads:", generated[0].Adapter.Head.String() == "vision-task-head")
	// Output:
	// domains covered: 2
	// adapters have vision heads: true
}
