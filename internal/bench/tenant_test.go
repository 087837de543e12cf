package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestMultiTenantQuick runs the multi-tenant experiment in quick mode
// and asserts the acceptance bar: fair-share dispatch achieves
// strictly higher realtime-tenant SLO attainment than FIFO at equal
// offered load, and one trajectory record lands per dispatch mode.
func TestMultiTenantQuick(t *testing.T) {
	s := NewSuite(true)
	s.OutDir = t.TempDir()
	tab, err := s.MultiTenant()
	if err != nil {
		t.Fatal(err)
	}
	// Three modes × three tenants.
	if len(tab.Rows) != 9 {
		t.Fatalf("want 9 rows, got %d", len(tab.Rows))
	}
	slo := map[string]float64{}
	for _, row := range tab.Rows {
		if row[1] == "realtime" {
			slo[row[0]] = parseF(t, row[2])
		}
	}
	if slo["fair-share"] <= slo["fifo"] {
		t.Fatalf("fair-share realtime SLO %.1f%% must strictly beat FIFO %.1f%%",
			slo["fair-share"], slo["fifo"])
	}

	data, err := os.ReadFile(filepath.Join(s.OutDir, BenchServingFile))
	if err != nil {
		t.Fatalf("trajectory not written: %v", err)
	}
	var records []StressRecord
	if err := json.Unmarshal(data, &records); err != nil {
		t.Fatalf("trajectory not valid JSON: %v", err)
	}
	if len(records) != 3 {
		t.Fatalf("want 3 records (one per mode), got %d", len(records))
	}
	modes := map[string]bool{}
	for _, rec := range records {
		if rec.Experiment != "multi-tenant" {
			t.Fatalf("wrong experiment tag %q", rec.Experiment)
		}
		if len(rec.TenantSLO) != 3 || rec.Jain <= 0 {
			t.Fatalf("record missing tenant fields: %+v", rec)
		}
		modes[rec.Mode] = true
	}
	if !modes["fifo"] || !modes["fair-share"] || !modes["fair-share+autoscale"] {
		t.Fatalf("modes incomplete: %v", modes)
	}

	// Stress records must coexist in the same trajectory file: 3
	// tenant modes plus the quick stress record.
	if _, err := s.MillionRequests(); err != nil {
		t.Fatal(err)
	}
	data, _ = os.ReadFile(filepath.Join(s.OutDir, BenchServingFile))
	records = nil
	if err := json.Unmarshal(data, &records); err != nil || len(records) != 4 {
		t.Fatalf("mixed trajectory should hold 4 records: len=%d err=%v", len(records), err)
	}
}
