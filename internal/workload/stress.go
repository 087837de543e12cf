package workload

import (
	"math/rand"
	"time"

	"valora/internal/sched"
	"valora/internal/train"
)

// StressConfig shapes a StressTrace: a synthetic high-rate workload
// meant to push the simulator itself, not to mirror a production
// application. Requests are deliberately small (short prompts, a
// couple of decode rounds) so that a single run can replay millions of
// them and the cost measured is the serving engine's bookkeeping, not
// the simulated GPU math.
type StressConfig struct {
	// Requests is the total request count (the knob the
	// million-requests experiment turns).
	Requests int
	// Rate is the aggregate arrival rate in requests per second of
	// virtual time (Poisson gaps).
	Rate float64
	// NumAdapters and Skew shape adapter popularity like the
	// retrieval/video generators (hottest adapter gets fraction Skew).
	NumAdapters int
	Skew        float64
	Seed        int64
	// MinInputTokens/MaxInputTokens bound the uniform prompt lengths.
	MinInputTokens int
	MaxInputTokens int
	// MaxOutputTokens bounds the uniform decode rounds (≥1 each).
	MaxOutputTokens int
}

// DefaultStress returns the configuration the million-requests bench
// experiment replays: n requests at 2500 req/s over 64 adapters with
// moderate skew, prompts of 32–128 tokens and 1–3 decode rounds.
func DefaultStress(n int, seed int64) StressConfig {
	return StressConfig{
		Requests:        n,
		Rate:            2500,
		NumAdapters:     64,
		Skew:            0.5,
		Seed:            seed,
		MinInputTokens:  32,
		MaxInputTokens:  128,
		MaxOutputTokens: 3,
	}
}

func (cfg StressConfig) withDefaults() StressConfig {
	if cfg.Requests < 1 {
		cfg.Requests = 1
	}
	if cfg.Rate <= 0 {
		cfg.Rate = 1000
	}
	if cfg.NumAdapters < 1 {
		cfg.NumAdapters = 1
	}
	if cfg.MinInputTokens < 1 {
		cfg.MinInputTokens = 32
	}
	if cfg.MaxInputTokens < cfg.MinInputTokens {
		cfg.MaxInputTokens = cfg.MinInputTokens
	}
	if cfg.MaxOutputTokens < 1 {
		cfg.MaxOutputTokens = 1
	}
	return cfg
}

// GenStress synthesizes a stress trace. Same seed → identical trace:
// the generator draws from a single seeded source in a fixed order and
// never re-sorts, so arrival order equals generation order.
func GenStress(cfg StressConfig) Trace {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	picker := NewSkewedPicker(cfg.NumAdapters, cfg.Skew, rng)
	out := make(Trace, 0, cfg.Requests)
	var reqs reqAlloc
	var now time.Duration
	inSpan := cfg.MaxInputTokens - cfg.MinInputTokens + 1
	for i := 0; i < cfg.Requests; i++ {
		now += time.Duration(rng.ExpFloat64() / cfg.Rate * float64(time.Second))
		out = append(out, reqs.alloc(sched.Request{
			ID:           int64(i + 1),
			App:          sched.VisualRetrieval,
			Task:         train.VisualQA,
			AdapterID:    picker.Pick(),
			Head:         train.LMHead,
			InputTokens:  cfg.MinInputTokens + rng.Intn(inSpan),
			OutputTokens: 1 + rng.Intn(cfg.MaxOutputTokens),
			Arrival:      now,
		}))
	}
	return out
}
