package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestMillionRequestsQuickSmoke runs the stress experiment in quick
// mode: the replay must account for every request, sweep the quick
// shard axis (one-worker baseline + 4 shards) with bit-identical
// virtual results, and append one record per configuration to the
// BENCH_serving.json trajectory.
func TestMillionRequestsQuickSmoke(t *testing.T) {
	s := NewSuite(true)
	s.OutDir = t.TempDir()
	tab, err := s.MillionRequests()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("want one row per sweep point (1 + 4 shards), got %d", len(tab.Rows))
	}
	if got := tab.Rows[0][0]; got != "50000" {
		t.Fatalf("quick mode should replay 50000 requests, row says %s", got)
	}
	if tab.Rows[0][2] != "1" || tab.Rows[1][2] != "4" {
		t.Fatalf("sweep should cover 1 then 4 shards, got %q and %q", tab.Rows[0][2], tab.Rows[1][2])
	}

	data, err := os.ReadFile(filepath.Join(s.OutDir, BenchServingFile))
	if err != nil {
		t.Fatalf("trajectory file not written: %v", err)
	}
	var records []StressRecord
	if err := json.Unmarshal(data, &records); err != nil {
		t.Fatalf("trajectory not valid JSON: %v", err)
	}
	if len(records) != 2 {
		t.Fatalf("want one trajectory record per sweep point, got %d", len(records))
	}
	for i, rec := range records {
		if rec.Requests != 50000 || rec.Instances != 4 || rec.Completed+rec.Rejected != rec.Requests {
			t.Fatalf("inconsistent record %d: %+v", i, rec)
		}
		if rec.SimRPS <= 0 || rec.WallSeconds <= 0 {
			t.Fatalf("missing throughput measurement: %+v", rec)
		}
		if rec.Repeats != s.stressRepeats() || rec.GOMAXPROCS <= 0 {
			t.Fatalf("record %d missing repeat/parallelism provenance: %+v", i, rec)
		}
		if !(rec.WallMinSeconds <= rec.WallSeconds && rec.WallSeconds <= rec.WallMaxSeconds) {
			t.Fatalf("record %d wall spread out of order: min %v med %v max %v", i, rec.WallMinSeconds, rec.WallSeconds, rec.WallMaxSeconds)
		}
	}
	if records[0].Shards != 1 || records[1].Shards != 4 {
		t.Fatalf("records should cover shards 1 and 4: %d, %d", records[0].Shards, records[1].Shards)
	}
	// The sweep's virtual results must agree exactly: the engines are
	// bit-identical by contract (MillionRequests itself DeepEquals the
	// full reports; the record fields are a visible spot check).
	if records[0].VirtualP99MS != records[1].VirtualP99MS || records[0].Completed != records[1].Completed {
		t.Fatalf("one-worker and 4-worker records disagree on virtual results: %+v vs %+v", records[0], records[1])
	}

	// A second run must append, not overwrite.
	if _, err := s.MillionRequests(); err != nil {
		t.Fatal(err)
	}
	data, _ = os.ReadFile(filepath.Join(s.OutDir, BenchServingFile))
	records = nil
	if err := json.Unmarshal(data, &records); err != nil || len(records) != 4 {
		t.Fatalf("trajectory should accumulate runs: len=%d err=%v", len(records), err)
	}
}

// TestSuiteShardsJoinsSweep pins the -shards flag contract: a shard
// count absent from the default sweep is appended to it.
func TestSuiteShardsJoinsSweep(t *testing.T) {
	s := NewSuite(true)
	s.Shards = 3
	got := s.stressShardSweep()
	want := []int{1, 4, 3}
	if len(got) != len(want) {
		t.Fatalf("sweep = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sweep = %v, want %v", got, want)
		}
	}
	s.Shards = 4 // already present: no duplicate
	if got := s.stressShardSweep(); len(got) != 2 {
		t.Fatalf("duplicate shard count appended: %v", got)
	}
}
