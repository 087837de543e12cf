package calib

import (
	"fmt"
	"time"

	"valora/internal/trace"
)

// FetchCost is the fitted adapter fetch-cost model: observed fetch
// latency ≈ BaseMS + PerMBMS · (bytes transferred / MiB), fitted to
// the trace.FetchRecord rows a registry store's fetch observer emits.
// The fit recovers the link parameters the simulator ran with; fetch
// latency that bytes alone do not explain (queueing, replica
// imbalance) shows up as a residual.
type FetchCost struct {
	BaseMS  float64 // per-fetch overhead, milliseconds
	PerMBMS float64 // marginal cost per MiB transferred, milliseconds
	Samples int
}

// FitFetchCost least-squares-fits the two-parameter fetch-cost model
// to a fetch capture. Zero-byte rows (pure dedup rides) still carry
// the base latency and anchor the intercept. At least two rows with
// distinct byte counts are required to identify the slope.
func FitFetchCost(rows []trace.FetchRecord) (FetchCost, error) {
	if len(rows) < 2 {
		return FetchCost{}, fmt.Errorf("calib: need at least 2 fetch rows, have %d", len(rows))
	}
	x := make([][]float64, len(rows))
	y := make([]float64, len(rows))
	spread := false
	for i, r := range rows {
		mb := float64(r.Bytes) / float64(1<<20)
		x[i] = []float64{1, mb}
		y[i] = float64(r.Duration()) / float64(time.Millisecond)
		if r.Bytes != rows[0].Bytes {
			spread = true
		}
	}
	if !spread {
		return FetchCost{}, fmt.Errorf("calib: all %d fetch rows transfer %d bytes; cannot identify a per-byte cost", len(rows), rows[0].Bytes)
	}
	beta, err := leastSquares(x, y)
	if err != nil {
		return FetchCost{}, fmt.Errorf("calib: fetch-cost fit: %w", err)
	}
	fc := FetchCost{BaseMS: beta[0], PerMBMS: beta[1], Samples: len(rows)}
	if fc.BaseMS < 0 {
		fc.BaseMS = 0
	}
	if fc.PerMBMS < 0 {
		fc.PerMBMS = 0
	}
	return fc, nil
}
