package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestFleetColdStartQuick runs the chunk-distribution experiment in
// quick mode and asserts the acceptance bars: chunking transfers
// strictly fewer remote bytes than whole-blob on the same fleet at
// equal host bytes, dedup actually fires on chunked rows only, one
// trajectory record lands per row, and the replicated row carries a
// fetch-cost fit.
func TestFleetColdStartQuick(t *testing.T) {
	s := NewSuite(true)
	s.OutDir = t.TempDir()
	tab, err := s.FleetColdStart()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("want 4 rows (one per mode), got %d", len(tab.Rows))
	}

	data, err := os.ReadFile(filepath.Join(s.OutDir, BenchServingFile))
	if err != nil {
		t.Fatalf("trajectory not written: %v", err)
	}
	var records []StressRecord
	if err := json.Unmarshal(data, &records); err != nil {
		t.Fatalf("trajectory not valid JSON: %v", err)
	}
	if len(records) != 4 {
		t.Fatalf("want 4 records, got %d", len(records))
	}
	byMode := map[string]StressRecord{}
	for _, rec := range records {
		if rec.Experiment != "fleet-cold-start" {
			t.Fatalf("wrong experiment tag %q", rec.Experiment)
		}
		byMode[rec.Mode] = rec
	}
	for _, m := range []string{"whole-blob/small", "whole-blob/fleet", "chunked/fleet", "chunked+replicas/fleet"} {
		if _, ok := byMode[m]; !ok {
			t.Fatalf("missing record for mode %q (have %v)", m, byMode)
		}
	}

	whole := byMode["whole-blob/fleet"]
	for _, m := range []string{"chunked/fleet", "chunked+replicas/fleet"} {
		ch := byMode[m]
		if ch.ChunkFetches == 0 || ch.DedupedBytes == 0 {
			t.Fatalf("%s: chunk fields empty: %+v", m, ch)
		}
		if ch.FetchBytes >= whole.FetchBytes {
			t.Fatalf("%s fetched %d bytes, want strictly less than whole-blob's %d",
				m, ch.FetchBytes, whole.FetchBytes)
		}
	}
	for _, m := range []string{"whole-blob/small", "whole-blob/fleet"} {
		// One chunk per adapter: a sibling's partial share cannot dedup.
		wb := byMode[m]
		if wb.DedupHits != 0 || wb.DedupedBytes != 0 {
			t.Fatalf("%s: whole-blob row deduped bytes: %+v", m, wb)
		}
	}
	rep := byMode["chunked+replicas/fleet"]
	if rep.FetchCostBaseMS <= 0 && rep.FetchCostPerMBMS <= 0 {
		t.Fatalf("replicated row missing fetch-cost fit: %+v", rep)
	}
}
