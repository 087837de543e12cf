package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// parseF extracts a float cell, failing the test on junk.
func parseF(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		t.Fatalf("non-numeric cell %q", cell)
	}
	return v
}

// TestFig14QuickOrdering runs the quick end-to-end comparison and
// asserts the headline claim: VaLoRA has the lowest average token
// latency in every cell, and dLoRA is the worst baseline.
func TestFig14QuickOrdering(t *testing.T) {
	s := NewSuite(true)
	tab, err := s.Fig14EndToEnd()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range tab.Rows {
		valora := parseF(t, row[3])
		for col := 4; col <= 6; col++ {
			if v := parseF(t, row[col]); v < valora {
				t.Errorf("%s/%s/%s: column %d (%.2f) beat VaLoRA (%.2f)",
					row[0], row[1], row[2], col, v, valora)
			}
		}
		if parseF(t, row[6]) < parseF(t, row[4]) {
			t.Errorf("%s/%s/%s: dLoRA should not beat S-LoRA", row[0], row[1], row[2])
		}
	}
}

// TestFig16QuickBand asserts the vision-task-head reduction stays in a
// sensible band around the paper's 41–63%.
func TestFig16QuickBand(t *testing.T) {
	s := NewSuite(true)
	tab, err := s.Fig16TaskHead()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		red := parseF(t, row[3])
		if red < 30 || red > 80 {
			t.Errorf("streams=%s: reduction %.1f%% outside the expected band", row[0], red)
		}
	}
}

// TestFig22QuickOrdering asserts VaLoRA stays lowest at both ends of
// the skew sweep.
func TestFig22QuickOrdering(t *testing.T) {
	s := NewSuite(true)
	tab, err := s.Fig22SkewE2E()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		valora := parseF(t, row[1])
		for col := 2; col <= 4; col++ {
			if v := parseF(t, row[col]); v < valora {
				t.Errorf("skew %s: column %d (%.2f) beat VaLoRA (%.2f)", row[0], col, v, valora)
			}
		}
	}
}

// TestTable3QuickScaling asserts near-linear multi-GPU scaling.
func TestTable3QuickScaling(t *testing.T) {
	s := NewSuite(true)
	tab, err := s.Table3MultiGPU()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tab.Rows))
	}
	t1 := parseF(t, tab.Rows[0][1])
	t2 := parseF(t, tab.Rows[1][1])
	t4 := parseF(t, tab.Rows[2][1])
	if t2/t1 < 1.5 || t2/t1 > 2.4 {
		t.Errorf("2-GPU scaling %.2fx outside near-linear band", t2/t1)
	}
	if t4/t1 < 3.0 || t4/t1 > 4.4 {
		t.Errorf("4-GPU scaling %.2fx outside near-linear band", t4/t1)
	}
}

// TestClusterDispatchQuick asserts the new cluster-scaling experiment
// headline: adapter-affinity routing strictly reduces switch+swap
// traffic versus round-robin on the skewed, swap-constrained trace.
func TestClusterDispatchQuick(t *testing.T) {
	s := NewSuite(true)
	s.OutDir = t.TempDir()
	tab, err := s.ClusterDispatch()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (one per dispatch policy)", len(tab.Rows))
	}
	traffic := func(row []string) float64 {
		return parseF(t, row[3]) + parseF(t, row[4]) // switches + swap-ins
	}
	rr, aff := tab.Rows[0], tab.Rows[2]
	if rr[0] != "round-robin" || aff[0] != "adapter-affinity" {
		t.Fatalf("unexpected row order: %v", tab.Rows)
	}
	if traffic(aff) >= traffic(rr) {
		t.Errorf("affinity traffic %.0f should be under round-robin %.0f", traffic(aff), traffic(rr))
	}

	data, err := os.ReadFile(filepath.Join(s.OutDir, BenchServingFile))
	if err != nil {
		t.Fatalf("trajectory file not written: %v", err)
	}
	var records []StressRecord
	if err := json.Unmarshal(data, &records); err != nil {
		t.Fatalf("trajectory not valid JSON: %v", err)
	}
	if len(records) != len(tab.Rows) {
		t.Fatalf("want one record per dispatch policy, got %d", len(records))
	}
	for i, rec := range records {
		row := tab.Rows[i]
		if rec.Dispatch != row[0] || float64(rec.Switches) != parseF(t, row[3]) || float64(rec.SwapIns) != parseF(t, row[4]) {
			t.Errorf("record %d disagrees with its row %v: %+v", i, row, rec)
		}
	}
}

// TestFig24QuickDelta asserts the prefix-cache ablation loses only a
// modest throughput fraction, in the spirit of the paper's <4%.
func TestFig24QuickDelta(t *testing.T) {
	s := NewSuite(true)
	tab, err := s.Fig24PrefixCache()
	if err != nil {
		t.Fatal(err)
	}
	with := parseF(t, tab.Rows[0][1])
	without := parseF(t, tab.Rows[1][1])
	if without > with {
		t.Errorf("removing the prefix cache should not raise throughput (%.2f vs %.2f)", without, with)
	}
	if loss := 1 - without/with; loss > 0.25 {
		t.Errorf("prefix-cache removal lost %.0f%% throughput; expected a modest delta", 100*loss)
	}
}

// TestAblationMemoryQuick asserts the unified pool beats the
// copy-based configuration under adapter-pool pressure.
func TestAblationMemoryQuick(t *testing.T) {
	s := NewSuite(true)
	tab, err := s.AblationMemory()
	if err != nil {
		t.Fatal(err)
	}
	unified := parseF(t, tab.Rows[0][1])
	copied := parseF(t, tab.Rows[1][1])
	if copied <= unified {
		t.Errorf("copy-based memory (%.2f ms) should lose to unified (%.2f ms)", copied, unified)
	}
}

// TestFig19QuickOrdering asserts the policy comparison's headline:
// VaLoRA beats merge-only and dLoRA at the quick skew point.
func TestFig19QuickOrdering(t *testing.T) {
	s := NewSuite(true)
	tab, err := s.Fig19Scheduler()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		valora := parseF(t, row[1])
		if mo := parseF(t, row[2]); mo < valora {
			t.Errorf("skew %s: merge-only (%.2f) beat VaLoRA (%.2f)", row[0], mo, valora)
		}
		if dl := parseF(t, row[4]); dl < valora {
			t.Errorf("skew %s: dLoRA (%.2f) beat VaLoRA (%.2f)", row[0], dl, valora)
		}
	}
}

// TestFig23QuickStability asserts VaLoRA's latency stays nearly flat
// across the adapter-count sweep while staying under dLoRA's.
func TestFig23QuickStability(t *testing.T) {
	s := NewSuite(true)
	tab, err := s.Fig23AdapterCount()
	if err != nil {
		t.Fatal(err)
	}
	first := parseF(t, tab.Rows[0][1])
	last := parseF(t, tab.Rows[len(tab.Rows)-1][1])
	if last > 1.5*first {
		t.Errorf("VaLoRA latency grew %.2fx across adapter counts; expected near-flat", last/first)
	}
	for _, row := range tab.Rows {
		if parseF(t, row[2]) < parseF(t, row[1]) {
			t.Errorf("adapters=%s: dLoRA beat VaLoRA", row[0])
		}
	}
}
