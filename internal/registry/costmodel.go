package registry

import "time"

// The measured fetch-cost model: every completed adapter fetch
// contributes one (bytes transferred, observed duration) sample to an
// online least-squares fit of duration ≈ base + perByte·bytes.
// The fitted model prices marginal bytes — what a fetch would
// actually cost given current residency — which is what the
// prefetcher and victim selection should rank by, and what the
// trace/calib machinery (trace.FetchRecord, calib.FitFetchCost)
// cross-checks offline.

// FetchSample is one completed adapter fetch as observed by the
// store: the bytes that actually crossed the links (deduped chunks
// count once — possibly zero when the fetch rode entirely on sibling
// transfers), the chunk transfers enqueued, and the request/complete
// virtual times.
type FetchSample struct {
	Tenant    string
	Family    string
	Bytes     int64 // bytes this fetch put on the links
	Chunks    int   // chunk transfers this fetch enqueued
	Demand    bool
	Requested time.Duration
	Done      time.Duration
}

// costAccum is an online simple-regression accumulator for
// duration = base + perByte·bytes.
type costAccum struct {
	n, sx, sy, sxx, sxy float64
}

func (a *costAccum) add(bytes int64, dur time.Duration) {
	x, y := float64(bytes), dur.Seconds()
	a.n++
	a.sx += x
	a.sy += y
	a.sxx += x * x
	a.sxy += x * y
}

// fit solves the two-parameter least squares. ok is false while the
// samples cannot identify a slope (fewer than two, or no byte
// spread).
func (a *costAccum) fit() (base, perByte float64, ok bool) {
	if a.n < 2 {
		return 0, 0, false
	}
	det := a.n*a.sxx - a.sx*a.sx
	if det <= 0 {
		return 0, 0, false
	}
	perByte = (a.n*a.sxy - a.sx*a.sy) / det
	base = (a.sy - perByte*a.sx) / a.n
	if base < 0 {
		base = 0
	}
	if perByte < 0 {
		perByte = 0
	}
	return base, perByte, true
}

// fetchCostWarmup is how many samples the fitted model needs before
// EstimateFetchCost trusts it over the configured link parameters.
const fetchCostWarmup = 8

// recordFetchCost folds one completed fetch into the online fit and
// forwards the sample to the registered observer. Called with s.mu
// held.
func (s *Store) recordFetchCost(ca *chunkAdapter) {
	dur := ca.done - ca.requested
	s.ch.cost.add(ca.queuedBytes, dur)
	if s.fetchObs != nil {
		s.fetchObs(FetchSample{
			Tenant:    ca.tenant,
			Family:    ca.family,
			Bytes:     ca.queuedBytes,
			Chunks:    len(ca.chunks),
			Demand:    ca.demand,
			Requested: ca.requested,
			Done:      ca.done,
		})
	}
}

// SetFetchObserver registers a callback invoked (under the store
// lock — keep it cheap, e.g. appending to a trace recorder) for every
// completed adapter fetch. nil disables.
func (s *Store) SetFetchObserver(fn func(FetchSample)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fetchObs = fn
}

// FetchCostModel reports the fitted fetch-cost parameters — base
// per-fetch overhead and marginal seconds per byte — with the sample
// count backing them. ok is false until the fit is identified.
func (s *Store) FetchCostModel() (base time.Duration, perByte float64, samples int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, p, ok := s.ch.cost.fit()
	return time.Duration(b * float64(time.Second)), p, int(s.ch.cost.n), ok
}

// EstimateFetchCost prices a transfer of the given marginal bytes:
// the measured model once warmed up (fetchCostWarmup samples),
// otherwise the configured link parameters. Feed it MissingBytes for
// a cost-ranked view of a cold adapter.
func (s *Store) EstimateFetchCost(bytes int64) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if bytes <= 0 {
		return 0
	}
	if s.ch.cost.n >= fetchCostWarmup {
		if base, perByte, ok := s.ch.cost.fit(); ok {
			return time.Duration((base + perByte*float64(bytes)) * float64(time.Second))
		}
	}
	return s.cfg.RemoteLatency +
		time.Duration(float64(bytes)/s.cfg.RemoteBandwidth*float64(time.Second))
}
