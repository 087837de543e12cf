package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the benchmark's child
// process, as the benchmark binary itself does.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == childFlag {
		os.Exit(childMain(os.Args[2]))
	}
	os.Exit(m.Run())
}

// declared is the part of BENCHMARK.json this package must honour.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmoke runs every workload at about a hundredth of its size,
// untraced and traced, through the same code a full run takes. Every
// gate must pass and every metric BENCHMARK.json declares must be
// emitted, with its declared unit and nothing else.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl declared
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program runs %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, workloads[i].name)
		}
	}

	server := filepath.Join(t.TempDir(), "valora-server")
	if out, err := exec.Command("go", "build", "-o", server, "valora/cmd/valora-server").CombinedOutput(); err != nil {
		t.Fatalf("building valora-server: %v\n%s", err, out)
	}
	for _, traced := range []bool{false, true} {
		want := decl.EndToEnd
		if traced {
			want = decl.PerLayer
		}
		cfg := config{seed: 7, seconds: 1, traced: traced, server: server, scale: 0.01}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		results, err := runAll(ctx, cfg, workloads)
		cancel()
		if err != nil {
			t.Fatalf("traced=%t: %v", traced, err)
		}
		for i, res := range results {
			name := workloads[i].name
			for _, g := range res.gates {
				t.Errorf("%s traced=%t: gate failed: %s", name, traced, g)
			}
			if res.Attempted < 1 {
				t.Errorf("%s traced=%t: attempted %d", name, traced, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics emitted, %d declared", name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				switch {
				case !metricName.MatchString(d.Name):
					t.Errorf("declared metric name %q is malformed", d.Name)
				case !ok:
					t.Errorf("%s traced=%t: %s not emitted", name, traced, d.Name)
				case m.Unit == "" || m.Unit != d.Unit:
					t.Errorf("%s traced=%t: %s has unit %q, declared %q", name, traced, d.Name, m.Unit, d.Unit)
				}
			}
		}
	}
}
