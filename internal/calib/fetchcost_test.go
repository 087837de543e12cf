package calib

import (
	"math"
	"testing"
	"time"

	"valora/internal/trace"
)

// fetchRow builds a fetch row of the given size whose latency lies on
// the line baseMS + perMBMS·MiB.
func fetchRow(at time.Duration, bytes int64, baseMS, perMBMS float64) trace.FetchRecord {
	ms := baseMS + perMBMS*float64(bytes)/float64(1<<20)
	return trace.FetchRecord{
		Bytes:     bytes,
		Chunks:    4,
		Requested: at,
		Done:      at + time.Duration(ms*float64(time.Millisecond)),
	}
}

// near reports whether got matches want up to the fit's tiny relative
// ridge (see leastSquares).
func near(got, want float64) bool { return math.Abs(got-want) <= 1e-6*math.Max(1, math.Abs(want)) }

func TestFitFetchCost(t *testing.T) {
	const base, perMB = 12.0, 0.75
	t.Run("recovers a known line", func(t *testing.T) {
		var rows []trace.FetchRecord
		// Zero-byte rows are dedup rides: they carry only the base
		// latency and anchor the intercept.
		for i, mb := range []int64{0, 1, 2, 0, 4, 8, 16, 3} {
			rows = append(rows, fetchRow(time.Duration(i)*time.Second, mb<<20, base, perMB))
		}
		fc, err := FitFetchCost(rows)
		if err != nil {
			t.Fatal(err)
		}
		if !near(fc.BaseMS, base) || !near(fc.PerMBMS, perMB) {
			t.Fatalf("fit = %+v, want base %v per-MiB %v", fc, base, perMB)
		}
		if fc.Samples != len(rows) {
			t.Fatalf("samples = %d, want %d", fc.Samples, len(rows))
		}
	})
	t.Run("fewer than two rows", func(t *testing.T) {
		for _, rows := range [][]trace.FetchRecord{nil, {fetchRow(0, 1<<20, base, perMB)}} {
			if _, err := FitFetchCost(rows); err == nil {
				t.Fatalf("%d rows fitted without error", len(rows))
			}
		}
	})
	t.Run("one byte count", func(t *testing.T) {
		rows := []trace.FetchRecord{
			fetchRow(0, 2<<20, base, perMB),
			fetchRow(time.Second, 2<<20, base, perMB),
			fetchRow(2*time.Second, 2<<20, base, perMB),
		}
		if _, err := FitFetchCost(rows); err == nil {
			t.Fatal("rows of one byte count identified a per-byte cost")
		}
	})
	t.Run("negative intercept clamps to zero", func(t *testing.T) {
		var rows []trace.FetchRecord
		for i, mb := range []int64{10, 20, 40} {
			rows = append(rows, fetchRow(time.Duration(i)*time.Second, mb<<20, -5, 2))
		}
		fc, err := FitFetchCost(rows)
		if err != nil {
			t.Fatal(err)
		}
		if fc.BaseMS != 0 {
			t.Fatalf("base = %v, want the negative intercept clamped to 0", fc.BaseMS)
		}
		if !near(fc.PerMBMS, 2) {
			t.Fatalf("per-MiB = %v, want 2", fc.PerMBMS)
		}
	})
}
