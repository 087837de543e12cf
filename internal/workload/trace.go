// Package workload synthesizes the request traces of the paper's
// evaluation (§6.1). The production Azure LLM inference trace and the
// video corpora are not available offline, so the generators reproduce
// their serving-relevant statistics: Poisson arrivals with optional
// burstiness, log-normal prompt/output token lengths, Zipf-like
// adapter popularity with a controllable "skewness" (the fraction of
// requests asking for the most popular adapter, as in Figs. 19/22),
// fixed-rate video-analytics streams (one 30-frame chunk per second
// per stream), and multi-round visual-retrieval sessions that revisit
// the same image (exercising the prefix cache, Fig. 24).
package workload

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"valora/internal/sched"
	"valora/internal/train"
)

// Trace is a time-ordered list of requests.
type Trace []*sched.Request

// Duration reports the arrival span of the trace.
func (t Trace) Duration() time.Duration {
	if len(t) == 0 {
		return 0
	}
	return t[len(t)-1].Arrival
}

// totalOutputTokens sums the output tokens across the trace.
func (t Trace) totalOutputTokens() int {
	total := 0
	for _, r := range t {
		total += r.OutputTokens
	}
	return total
}

// MarkColdCandidates pre-stamps the trace's cold-start population for
// tiered-residency experiments: a request is a cold candidate when its
// adapter was last requested more than gap ago (or never) — the
// arrivals a bounded host cache is most likely to have evicted.
// Because the marking depends only on the trace, the population is
// identical across runs replaying the same seed, so cold-start TTFT
// percentiles compare like for like between prefetch policies (a
// runtime residency stamp would shrink the population in exactly the
// modes that warm adapters early, biasing the tail upward). It
// returns the number of marked requests.
func MarkColdCandidates(t Trace, gap time.Duration) int {
	lastSeen := make(map[int]time.Duration, 64)
	marked := 0
	for _, r := range t {
		// Every request is stamped so the runtime's residency-based
		// stamping stays out of a pre-marked trace entirely.
		r.ColdStamped = true
		at, seen := lastSeen[r.AdapterID]
		if !seen || r.Arrival-at > gap {
			r.ColdStart = true
			marked++
		}
		lastSeen[r.AdapterID] = r.Arrival
	}
	return marked
}

// ResetRuntime returns every request to its as-generated state (see
// sched.Request.ResetRuntime), so the same trace can be replayed for
// wall-clock repeat measurements without regenerating it. Traces
// pre-stamped with MarkColdCandidates must be re-marked after a reset:
// the stamp lives in the runtime fields.
func (t Trace) ResetRuntime() {
	for _, r := range t {
		r.ResetRuntime()
	}
}

// Merge combines traces and re-sorts by arrival time, reassigning IDs.
func Merge(traces ...Trace) Trace {
	var out Trace
	for _, t := range traces {
		out = append(out, t...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Arrival < out[j].Arrival })
	for i, r := range out {
		r.ID = int64(i + 1)
	}
	return out
}

// AdapterPicker selects an adapter for each request.
type AdapterPicker struct {
	ids  []int
	cum  []float64
	rng  *rand.Rand
	skew float64
}

// NewSkewedPicker builds a picker over n adapters where the most
// popular adapter receives fraction skew of requests and the rest
// follow a Zipf(1) tail — the skewness knob of Figs. 19/22.
func NewSkewedPicker(n int, skew float64, rng *rand.Rand) *AdapterPicker {
	if n < 1 {
		n = 1
	}
	if skew < 0 {
		skew = 0
	}
	if skew > 1 {
		skew = 1
	}
	weights := make([]float64, n)
	weights[0] = skew
	var tail float64
	for i := 1; i < n; i++ {
		weights[i] = 1 / float64(i)
		tail += weights[i]
	}
	rem := 1 - skew
	if n == 1 {
		weights[0] = 1
	} else {
		for i := 1; i < n; i++ {
			weights[i] = rem * weights[i] / tail
		}
	}
	cum := make([]float64, n)
	var acc float64
	ids := make([]int, n)
	for i := range weights {
		acc += weights[i]
		cum[i] = acc
		ids[i] = i
	}
	return &AdapterPicker{ids: ids, cum: cum, rng: rng, skew: skew}
}

// Pick draws one adapter ID from the picker's own seeded source,
// through the cumulative popularity weights.
func (p *AdapterPicker) Pick() int {
	i := sort.SearchFloat64s(p.cum, p.rng.Float64())
	if i >= len(p.ids) {
		i = len(p.ids) - 1
	}
	return p.ids[i]
}

// lognormal draws a log-normal sample with the given median and sigma,
// clamped to [lo, hi].
func lognormal(rng *rand.Rand, median, sigma float64, lo, hi int) int {
	v := math.Exp(math.Log(median) + sigma*rng.NormFloat64())
	n := int(v)
	if n < lo {
		n = lo
	}
	if n > hi {
		n = hi
	}
	return n
}

// RetrievalConfig shapes a visual-retrieval trace.
type RetrievalConfig struct {
	Rate        float64 // requests per second
	Duration    time.Duration
	NumAdapters int
	Skew        float64 // fraction of requests on the hottest adapter
	Seed        int64
	// Burstiness >1 clusters arrivals (hyper-exponential gaps); 1 is
	// pure Poisson.
	Burstiness float64
	// MultiRound, if >0, is the probability that a request starts a
	// multi-round session revisiting the same image.
	MultiRound float64
	// RoundsPerSession bounds the follow-up rounds of a session.
	RoundsPerSession int
	// VisualTokens per image (model-dependent; 256 for Qwen-VL).
	VisualTokens int
}

// DefaultRetrieval mirrors the paper's visual-retrieval workload: the
// Azure-trace arrival process subsampled to rate req/s, prompt lengths
// 128–1024, answers ≈200 tokens through the LM head.
func DefaultRetrieval(rate float64, duration time.Duration, adapters int, skew float64, seed int64) RetrievalConfig {
	return RetrievalConfig{
		Rate:             rate,
		Duration:         duration,
		NumAdapters:      adapters,
		Skew:             skew,
		Seed:             seed,
		Burstiness:       1.4,
		MultiRound:       0.3,
		RoundsPerSession: 3,
		VisualTokens:     256,
	}
}

// GenRetrieval synthesizes a visual-retrieval trace.
func GenRetrieval(cfg RetrievalConfig) Trace {
	rng := rand.New(rand.NewSource(cfg.Seed))
	picker := NewSkewedPicker(cfg.NumAdapters, cfg.Skew, rng)
	if cfg.VisualTokens <= 0 {
		cfg.VisualTokens = 256
	}
	if cfg.Burstiness < 1 {
		cfg.Burstiness = 1
	}

	var out Trace
	var reqs reqAlloc
	var now time.Duration
	var id int64
	var session uint32
	tasks := []train.TaskType{train.VisualQA, train.ImageCaptioning, train.ObjectDetection}
	for now < cfg.Duration {
		// Hyper-exponential gap: occasional long gaps, compensated by
		// shorter ones, keeping the mean rate while adding burstiness.
		gap := rng.ExpFloat64() / cfg.Rate
		if cfg.Burstiness > 1 && rng.Float64() < 0.2 {
			gap *= cfg.Burstiness * 2
		} else if cfg.Burstiness > 1 {
			gap /= 1 + 0.25*(cfg.Burstiness-1)
		}
		now += time.Duration(gap * float64(time.Second))
		if now >= cfg.Duration {
			break
		}

		task := tasks[rng.Intn(len(tasks))]
		adapter := picker.Pick()
		rounds := 1
		var imageID uint32 // 0: a unique image
		if rng.Float64() < cfg.MultiRound && cfg.RoundsPerSession > 1 {
			rounds = 2 + rng.Intn(cfg.RoundsPerSession-1)
			session++
			imageID = session
		}
		roundAt := now
		for round := 0; round < rounds; round++ {
			id++
			prompt := lognormal(rng, 110, 0.7, 16, 768)
			out = append(out, reqs.alloc(sched.Request{
				ID:           id,
				App:          sched.VisualRetrieval,
				Task:         task,
				AdapterID:    adapter,
				Head:         train.LMHead,
				InputTokens:  cfg.VisualTokens + prompt,
				OutputTokens: lognormal(rng, 200, 0.35, 24, 512),
				Images:       1,
				ImageID:      imageID,
				Arrival:      roundAt,
			}))
			roundAt += time.Duration((0.5 + rng.Float64()) * float64(time.Second))
		}
	}
	return Merge(out)
}

// VideoConfig shapes a video-analytics trace.
type VideoConfig struct {
	Streams     int
	Duration    time.Duration
	NumAdapters int
	Skew        float64
	Seed        int64
	// Head selects how detection/understanding answers are produced:
	// the vision task head (1 round) or the LM head.
	Head train.HeadKind
	// VisualTokens per frame-group image.
	VisualTokens int
	// FramesPerChunk is the chunk size (30 frames ≙ 1 s of video).
	FramesPerChunk int
	// LatencyBudget is the per-request deadline (real-time analytics).
	LatencyBudget time.Duration
}

// DefaultVideo mirrors the paper's video-analytics workload: every
// stream submits one chunk per second; each chunk spawns an object
// detection request and a video-understanding request over 6 sampled
// frames (6×256 input tokens, 5–10 output tokens through the LM head).
func DefaultVideo(streams int, duration time.Duration, adapters int, skew float64, seed int64) VideoConfig {
	return VideoConfig{
		Streams:        streams,
		Duration:       duration,
		NumAdapters:    adapters,
		Skew:           skew,
		Seed:           seed,
		Head:           train.VisionHead,
		VisualTokens:   256,
		FramesPerChunk: 30,
		LatencyBudget:  time.Second,
	}
}

// GenVideo synthesizes a video-analytics trace.
func GenVideo(cfg VideoConfig) Trace {
	rng := rand.New(rand.NewSource(cfg.Seed))
	picker := NewSkewedPicker(cfg.NumAdapters, cfg.Skew, rng)
	if cfg.VisualTokens <= 0 {
		cfg.VisualTokens = 256
	}

	var out Trace
	var reqs reqAlloc
	var id int64
	for s := 0; s < cfg.Streams; s++ {
		// Streams start phase-shifted within the first second.
		offset := time.Duration(rng.Float64() * float64(time.Second))
		detAdapter := picker.Pick()
		vuAdapter := picker.Pick()
		for t := offset; t < cfg.Duration; t += time.Second {
			// Object detection over the chunk's key frame.
			id++
			out = append(out, reqs.alloc(sched.Request{
				ID:           id,
				App:          sched.VideoAnalytics,
				Task:         train.ObjectDetection,
				AdapterID:    detAdapter,
				Head:         cfg.Head,
				InputTokens:  cfg.VisualTokens + 32,
				OutputTokens: train.DecodeRounds(train.ObjectDetection, cfg.Head),
				Images:       1,
				Arrival:      t,
				Deadline:     cfg.LatencyBudget,
			}))
			// Video understanding over 6 sampled frames.
			id++
			out = append(out, reqs.alloc(sched.Request{
				ID:           id,
				App:          sched.VideoAnalytics,
				Task:         train.VideoClassification,
				AdapterID:    vuAdapter,
				Head:         cfg.Head,
				InputTokens:  6*cfg.VisualTokens + 48,
				OutputTokens: train.DecodeRounds(train.VideoClassification, cfg.Head),
				Images:       6,
				Arrival:      t,
				Deadline:     cfg.LatencyBudget,
			}))
		}
	}
	return Merge(out)
}
