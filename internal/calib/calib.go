// Package calib fits the simulator's cost-model coefficients to a
// captured per-request trace and scores how well the fitted model
// reproduces the observed latency distributions — the predict and
// calibrate halves of the observe–predict–calibrate loop (the learned
// α/β approach of inference-sim's latency model, applied to this
// repro's richer request shape).
//
// The model decomposes each request's service time at its two
// observable joints:
//
//	prefill span  = FirstToken − Admission ≈ a₀ + a₁·(prompt − shared) + a₂·images + a₃·cold
//	decode span   = Finish − FirstToken    ≈ b₀ + b₁·(out − 1) + b₂·recompute
//
// fitted independently by ridge-stabilized least squares (normal
// equations; the tiny relative ridge handles collinear designs — e.g.
// a capture where every request carries exactly one image, making the
// image column collinear with the intercept). Queueing is not
// modeled: predictions re-use each row's observed queue wait, so the
// score isolates cost-model error from scheduler load dynamics.
package calib

import (
	"fmt"
	"math"
	"time"

	"valora/internal/metrics"
	"valora/internal/trace"
)

// Coefficients are the fitted cost-model parameters, in milliseconds
// (per-token terms in ms/token).
type Coefficients struct {
	PrefillBaseMS     float64 `json:"prefill_base_ms"`
	PrefillPerTokenMS float64 `json:"prefill_per_token_ms"`
	PrefillPerImageMS float64 `json:"prefill_per_image_ms"`
	ColdPenaltyMS     float64 `json:"cold_penalty_ms"`

	DecodeBaseMS        float64 `json:"decode_base_ms"`
	DecodePerTokenMS    float64 `json:"decode_per_token_ms"`
	RecomputePerTokenMS float64 `json:"recompute_per_token_ms"`

	Rows int `json:"rows"`
}

const ms = float64(time.Millisecond)

// prefillFeatures is one row's prefill design vector.
func prefillFeatures(r trace.Record) []float64 {
	net := r.InputTokens - r.SharedTokens
	cold := 0.0
	if r.ColdStart {
		cold = 1
	}
	return []float64{1, float64(net), float64(r.Images), cold}
}

// decodeFeatures is one row's decode design vector.
func decodeFeatures(r trace.Record) []float64 {
	out := r.OutputTokens - 1
	if out < 0 {
		out = 0
	}
	return []float64{1, float64(out), float64(r.RecomputeTokens)}
}

// Fit estimates coefficients from a captured trace.
func Fit(rows []trace.Record) (Coefficients, error) {
	if len(rows) < 8 {
		return Coefficients{}, fmt.Errorf("calib: need at least 8 trace rows, have %d", len(rows))
	}
	var px, dx [][]float64
	var py, dy []float64
	for _, r := range rows {
		if r.FirstToken < r.Admission || r.Finish < r.FirstToken {
			return Coefficients{}, fmt.Errorf("calib: row %d has non-causal timestamps", r.ID)
		}
		px = append(px, prefillFeatures(r))
		py = append(py, float64(r.FirstToken-r.Admission)/ms)
		dx = append(dx, decodeFeatures(r))
		dy = append(dy, float64(r.Finish-r.FirstToken)/ms)
	}
	pc, err := leastSquares(px, py)
	if err != nil {
		return Coefficients{}, fmt.Errorf("calib: prefill fit: %w", err)
	}
	dc, err := leastSquares(dx, dy)
	if err != nil {
		return Coefficients{}, fmt.Errorf("calib: decode fit: %w", err)
	}
	return Coefficients{
		PrefillBaseMS:     pc[0],
		PrefillPerTokenMS: pc[1],
		PrefillPerImageMS: pc[2],
		ColdPenaltyMS:     pc[3],

		DecodeBaseMS:        dc[0],
		DecodePerTokenMS:    dc[1],
		RecomputePerTokenMS: dc[2],

		Rows: len(rows),
	}, nil
}

// prefillMS predicts one row's prefill span in milliseconds.
func (c Coefficients) prefillMS(r trace.Record) float64 {
	f := prefillFeatures(r)
	return c.PrefillBaseMS + c.PrefillPerTokenMS*f[1] + c.PrefillPerImageMS*f[2] + c.ColdPenaltyMS*f[3]
}

// decodeMS predicts one row's decode span in milliseconds.
func (c Coefficients) decodeMS(r trace.Record) float64 {
	f := decodeFeatures(r)
	return c.DecodeBaseMS + c.DecodePerTokenMS*f[1] + c.RecomputePerTokenMS*f[2]
}

// predictTTFTMS predicts one row's time to first token: the observed
// queue wait plus the modeled prefill span.
func (c Coefficients) predictTTFTMS(r trace.Record) float64 {
	return float64(r.QueueWait())/ms + c.prefillMS(r)
}

// predictE2EMS predicts one row's end-to-end latency.
func (c Coefficients) predictE2EMS(r trace.Record) float64 {
	return c.predictTTFTMS(r) + c.decodeMS(r)
}

// Metric is one calibration scorecard row: an observed-vs-predicted
// percentile and its relative error.
type Metric struct {
	Name        string  `json:"name"`
	ObservedMS  float64 `json:"observed_ms"`
	PredictedMS float64 `json:"predicted_ms"`
	RelErr      float64 `json:"rel_err"`
}

// Evaluate re-simulates the trace under the fitted model (each row's
// latency re-predicted from its features and observed queue wait) and
// scores the predicted TTFT and E2E distributions against the
// observed ones at p50 and p99.
func Evaluate(rows []trace.Record, c Coefficients) []Metric {
	obsTTFT, obsE2E := metrics.NewStream(), metrics.NewStream()
	prdTTFT, prdE2E := metrics.NewStream(), metrics.NewStream()
	for _, r := range rows {
		obsTTFT.Add(float64(r.TTFT()) / ms)
		obsE2E.Add(float64(r.E2E()) / ms)
		prdTTFT.Add(c.predictTTFTMS(r))
		prdE2E.Add(c.predictE2EMS(r))
	}
	return []Metric{
		metricOf("ttft_p50", obsTTFT.Percentile(50), prdTTFT.Percentile(50)),
		metricOf("ttft_p99", obsTTFT.Percentile(99), prdTTFT.Percentile(99)),
		metricOf("e2e_p50", obsE2E.Percentile(50), prdE2E.Percentile(50)),
		metricOf("e2e_p99", obsE2E.Percentile(99), prdE2E.Percentile(99)),
	}
}

func metricOf(name string, obs, prd float64) Metric {
	rel := math.Abs(prd - obs)
	if obs != 0 {
		rel /= math.Abs(obs)
	}
	return Metric{Name: name, ObservedMS: obs, PredictedMS: prd, RelErr: rel}
}

// MaxRelErr reports the worst relative error of a scorecard.
func MaxRelErr(ms []Metric) float64 {
	worst := 0.0
	for _, m := range ms {
		if m.RelErr > worst {
			worst = m.RelErr
		}
	}
	return worst
}

// leastSquares solves min‖Xβ−y‖² via the normal equations with a tiny
// relative ridge (λ scaled to each diagonal element), so rank-deficient
// designs — a constant column duplicating the intercept, an
// all-zero feature — still solve, shrinking the redundant direction
// toward zero instead of failing.
func leastSquares(x [][]float64, y []float64) ([]float64, error) {
	if len(x) == 0 {
		return nil, fmt.Errorf("empty design")
	}
	k := len(x[0])
	xtx := make([][]float64, k)
	for i := range xtx {
		xtx[i] = make([]float64, k)
	}
	xty := make([]float64, k)
	for n, row := range x {
		if len(row) != k {
			return nil, fmt.Errorf("ragged design row %d", n)
		}
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				xtx[i][j] += row[i] * row[j]
			}
			xty[i] += row[i] * y[n]
		}
	}
	const ridge = 1e-8
	for i := 0; i < k; i++ {
		xtx[i][i] += ridge*xtx[i][i] + 1e-12
	}
	return solve(xtx, xty)
}

// solve performs Gaussian elimination with partial pivoting on a
// square system.
func solve(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	for col := 0; col < n; col++ {
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-15 {
			return nil, fmt.Errorf("singular system at column %d", col)
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	out := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for c := r + 1; c < n; c++ {
			sum -= a[r][c] * out[c]
		}
		out[r] = sum / a[r][r]
	}
	return out, nil
}
