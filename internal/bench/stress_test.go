package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"valora/internal/workload"
)

// TestMillionRequestsQuickSmoke runs the stress experiment in quick
// mode: the replay must account for every request and append one
// record, stamped with Run's worker count, to the BENCH_serving.json
// trajectory.
func TestMillionRequestsQuickSmoke(t *testing.T) {
	s := NewSuite(true)
	s.OutDir = t.TempDir()
	tab, err := s.MillionRequests()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 {
		t.Fatalf("quick mode should report one row, got %d", len(tab.Rows))
	}
	if got := tab.Rows[0][0]; got != "50000" {
		t.Fatalf("quick mode should replay 50000 requests, row says %s", got)
	}
	workers := runtime.GOMAXPROCS(0)
	if got, want := tab.Rows[0][2], fmt.Sprintf("%d", workers); got != want {
		t.Fatalf("workers column = %q, want GOMAXPROCS %s", got, want)
	}
	// The quick trace overloads the fleet too, and the note says so
	// beside the offered and the served rate.
	offered := fmt.Sprintf("offers %.0f req/s and the fleet served %s virtual req/s", workload.DefaultStress(50000, s.Seed).Rate, tab.Rows[0][5])
	if !strings.Contains(tab.Notes, offered) || !strings.Contains(tab.Notes, "growing backlog") {
		t.Fatalf("note does not say the trace overloads the fleet (%s): %s", offered, tab.Notes)
	}

	data, err := os.ReadFile(filepath.Join(s.OutDir, BenchServingFile))
	if err != nil {
		t.Fatalf("trajectory file not written: %v", err)
	}
	var records []StressRecord
	if err := json.Unmarshal(data, &records); err != nil {
		t.Fatalf("trajectory not valid JSON: %v", err)
	}
	if len(records) != 1 {
		t.Fatalf("want one trajectory record, got %d", len(records))
	}
	rec := records[0]
	if rec.Requests != 50000 || rec.Instances != 4 || rec.Completed+rec.Rejected != rec.Requests {
		t.Fatalf("inconsistent record: %+v", rec)
	}
	if rec.SimRPS <= 0 || rec.WallSeconds <= 0 {
		t.Fatalf("missing throughput measurement: %+v", rec)
	}
	if rec.Repeats != s.stressRepeats() || rec.GOMAXPROCS <= 0 || rec.Shards != workers {
		t.Fatalf("record missing repeat/parallelism provenance: %+v", rec)
	}
	if !(rec.WallMinSeconds <= rec.WallSeconds && rec.WallSeconds <= rec.WallMaxSeconds) {
		t.Fatalf("record wall spread out of order: min %v med %v max %v", rec.WallMinSeconds, rec.WallSeconds, rec.WallMaxSeconds)
	}

	// A second run must append, not overwrite.
	if _, err := s.MillionRequests(); err != nil {
		t.Fatal(err)
	}
	data, _ = os.ReadFile(filepath.Join(s.OutDir, BenchServingFile))
	records = nil
	if err := json.Unmarshal(data, &records); err != nil || len(records) != 2 {
		t.Fatalf("trajectory should accumulate runs: len=%d err=%v", len(records), err)
	}
}
