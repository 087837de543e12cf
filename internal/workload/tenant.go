package workload

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"valora/internal/sched"
	"valora/internal/train"
)

// TenantTraffic shapes one tenant's arrival process in a multi-tenant
// trace: a diurnal sinusoid modulating a Poisson base rate, optional
// Poisson-triggered bursts riding on top, and a skewed adapter mix
// over the tenant's own adapter range. Request sizes follow the
// StressTrace shape (uniform prompt span, small decode counts) so the
// composition stays cheap enough for large replays.
type TenantTraffic struct {
	// Tenant names the service class (copied onto every request).
	Tenant string
	// App labels the requests (video analytics vs visual retrieval).
	App sched.AppType
	// Rate is the mean arrival rate in requests per second.
	Rate float64
	// Diurnal is the sinusoid amplitude on the rate, in [0, 1): the
	// instantaneous rate is Rate·(1 + Diurnal·sin(2πt/DiurnalPeriod)).
	Diurnal float64
	// DiurnalPeriod is the sinusoid period (a scaled-down "day";
	// default 30s so a one-minute trace sees two cycles).
	DiurnalPeriod time.Duration
	// BurstRate is the extra arrival rate during a burst window.
	BurstRate float64
	// BurstEvery is the mean gap between burst starts (Poisson;
	// 0 = no bursts).
	BurstEvery time.Duration
	// BurstDuration is each burst window's length.
	BurstDuration time.Duration
	// NumAdapters and Skew shape the tenant's adapter popularity;
	// AdapterOffset shifts the range so tenants can own disjoint
	// adapter sets.
	NumAdapters   int
	AdapterOffset int
	Skew          float64
	// HotSetDriftEvery rotates the tenant's adapter-popularity ranking
	// by one position every interval (0 = static popularity): the
	// adapter that was hottest in one window hands its traffic to the
	// next ID in the following window. Prefetchers and residency
	// quotas face a moving hot set instead of a fixed one.
	HotSetDriftEvery time.Duration
	// Prompt/decode bounds (uniform), as in StressConfig.
	MinInputTokens  int
	MaxInputTokens  int
	MaxOutputTokens int
	// Deadline is the per-request latency SLO (0 = best effort).
	Deadline time.Duration
}

func (t TenantTraffic) withDefaults() TenantTraffic {
	if t.Rate <= 0 {
		t.Rate = 1
	}
	if t.Diurnal < 0 {
		t.Diurnal = 0
	}
	if t.Diurnal > 0.99 {
		t.Diurnal = 0.99
	}
	if t.DiurnalPeriod <= 0 {
		t.DiurnalPeriod = 30 * time.Second
	}
	if t.NumAdapters < 1 {
		t.NumAdapters = 1
	}
	if t.MinInputTokens < 1 {
		t.MinInputTokens = 32
	}
	if t.MaxInputTokens < t.MinInputTokens {
		t.MaxInputTokens = t.MinInputTokens
	}
	if t.MaxOutputTokens < 1 {
		t.MaxOutputTokens = 1
	}
	return t
}

// MultiTenantConfig composes several tenants' arrival processes over
// one trace duration.
type MultiTenantConfig struct {
	Duration time.Duration
	Seed     int64
	Tenants  []TenantTraffic
}

// GenMultiTenant synthesizes a multi-tenant trace: each tenant's
// arrivals are generated independently (thinning a non-homogeneous
// Poisson process against its peak rate, so the diurnal modulation and
// burst windows are exact), then merged into one time-ordered trace.
// Same seed → identical trace; each tenant draws from its own derived
// seed so adding a tenant does not perturb the others' arrivals.
func GenMultiTenant(cfg MultiTenantConfig) Trace {
	var out Trace
	var reqs reqAlloc
	for i, tt := range cfg.Tenants {
		out = append(out, genTenant(tt.withDefaults(), cfg.Duration, cfg.Seed+int64(1+i)*1000003, &reqs)...)
	}
	return Merge(out)
}

// burstWindows draws the tenant's burst intervals over the duration.
func burstWindows(tt TenantTraffic, duration time.Duration, rng *rand.Rand) [][2]time.Duration {
	if tt.BurstEvery <= 0 || tt.BurstRate <= 0 || tt.BurstDuration <= 0 {
		return nil
	}
	var wins [][2]time.Duration
	var at time.Duration
	for {
		gap := time.Duration(rng.ExpFloat64() * float64(tt.BurstEvery))
		at += gap
		if at >= duration {
			return wins
		}
		wins = append(wins, [2]time.Duration{at, at + tt.BurstDuration})
		at += tt.BurstDuration
	}
}

// genTenant generates one tenant's requests from reqs.
func genTenant(tt TenantTraffic, duration time.Duration, seed int64, reqs *reqAlloc) Trace {
	rng := rand.New(rand.NewSource(seed))
	picker := NewSkewedPicker(tt.NumAdapters, tt.Skew, rng)
	bursts := burstWindows(tt, duration, rng)
	inBurst := func(t time.Duration) bool {
		i := sort.Search(len(bursts), func(i int) bool { return bursts[i][1] > t })
		return i < len(bursts) && bursts[i][0] <= t
	}
	rateAt := func(t time.Duration) float64 {
		r := tt.Rate * (1 + tt.Diurnal*math.Sin(2*math.Pi*float64(t)/float64(tt.DiurnalPeriod)))
		if inBurst(t) {
			r += tt.BurstRate
		}
		return r
	}
	peak := tt.Rate*(1+tt.Diurnal) + tt.BurstRate

	var out Trace
	var now time.Duration
	var id int64
	inSpan := tt.MaxInputTokens - tt.MinInputTokens + 1
	task := train.VisualQA
	if tt.App == sched.VideoAnalytics {
		task = train.ObjectDetection
	}
	for {
		// Thinning: candidate arrivals at the peak rate, accepted with
		// probability rate(t)/peak, yield the non-homogeneous process.
		now += time.Duration(rng.ExpFloat64() / peak * float64(time.Second))
		if now >= duration {
			return out
		}
		if rng.Float64()*peak > rateAt(now) {
			continue
		}
		id++
		pick := picker.Pick()
		if tt.HotSetDriftEvery > 0 {
			// Rotate the popularity ranking over the tenant's own
			// range: rank r maps to adapter (r + window) mod N.
			pick = (pick + int(now/tt.HotSetDriftEvery)) % tt.NumAdapters
		}
		out = append(out, reqs.alloc(sched.Request{
			ID:           id,
			App:          tt.App,
			Task:         task,
			Tenant:       tt.Tenant,
			AdapterID:    tt.AdapterOffset + pick,
			Head:         train.LMHead,
			InputTokens:  tt.MinInputTokens + rng.Intn(inSpan),
			OutputTokens: 1 + rng.Intn(tt.MaxOutputTokens),
			Arrival:      now,
			Deadline:     tt.Deadline,
		}))
	}
}

// DefaultTenantClasses returns the scheduling-side service classes
// matching DefaultMultiTenant's traffic: the realtime class holds half
// the guaranteed capacity, interactive less, and batch the remainder
// plus the lowest burst credit and the deepest (but still bounded)
// queue — it absorbs its own bursts in queueing rather than crowding
// the others out.
func DefaultTenantClasses() []sched.TenantConfig {
	return []sched.TenantConfig{
		{Name: "realtime", Weight: 5, Burst: 2, QueueCap: 512, Priority: 2},
		{Name: "interactive", Weight: 3, Burst: 2, QueueCap: 512, Priority: 1},
		{Name: "batch", Weight: 2, Burst: 1, QueueCap: 2048, Priority: 0},
	}
}

// PreemptTenantClasses returns the scheduling-side service classes of
// DefaultPreemptMix: the realtime class holds most of the guaranteed
// capacity; the batch class gets a deep queue and absorbs displacement
// (its requests are the natural preemption victims).
func PreemptTenantClasses() []sched.TenantConfig {
	return []sched.TenantConfig{
		{Name: "realtime", Weight: 3, Burst: 2, QueueCap: 1024, Priority: 2},
		{Name: "batch", Weight: 1, Burst: 1, QueueCap: 4096, Priority: 0},
	}
}

// DefaultPreemptMix is the two-class adversarial scenario of the
// preemption-tail experiment: a tight-deadline realtime class (250 ms
// video analytics, small requests, bursty) interleaved with a
// best-effort batch class whose long decodes occupy instance
// admission slots and KV for hundreds of iterations. At ~1.5x offered
// load the batch class keeps every instance's admitted set full, so a
// realtime burst arriving mid-decode-train exposes exactly the tail
// iteration-level preemption attacks. Rates are per instance of cluster capacity;
// scale multiplies them.
func DefaultPreemptMix(duration time.Duration, scale float64, seed int64) MultiTenantConfig {
	if scale <= 0 {
		scale = 1
	}
	return MultiTenantConfig{
		Duration: duration,
		Seed:     seed,
		Tenants: []TenantTraffic{
			{
				Tenant: "realtime", App: sched.VideoAnalytics,
				Rate: 15 * scale, Diurnal: 0.2,
				BurstRate: 15 * scale, BurstEvery: 6 * time.Second, BurstDuration: 1500 * time.Millisecond,
				NumAdapters: 4, AdapterOffset: 0, Skew: 0.7,
				MinInputTokens: 32, MaxInputTokens: 96, MaxOutputTokens: 2,
				Deadline: 250 * time.Millisecond,
			},
			{
				Tenant: "batch", App: sched.VisualRetrieval,
				Rate: 12 * scale, Diurnal: 0.1,
				BurstRate: 20 * scale, BurstEvery: 8 * time.Second, BurstDuration: 2 * time.Second,
				NumAdapters: 8, AdapterOffset: 4, Skew: 0.4,
				MinInputTokens: 128, MaxInputTokens: 256, MaxOutputTokens: 96,
			},
		},
	}
}

// DefaultMultiTenant is the three-class scenario of the multi-tenant
// experiment — the service mix VaLoRA's vision applications meet in
// deployment:
//
//   - "realtime": live video-analytics assistance with a tight latency
//     SLO, steady rate, small requests (the visually-impaired-user
//     assistance class).
//   - "interactive": visual-retrieval sessions with a looser SLO,
//     strong diurnal swing, mid-size requests.
//   - "batch": throughput-oriented inspection (Power-LLaVA-style),
//     best effort, large requests arriving in aggressive bursts.
//
// Rates are per instance of cluster capacity; scale multiplies them.
func DefaultMultiTenant(duration time.Duration, scale float64, seed int64) MultiTenantConfig {
	if scale <= 0 {
		scale = 1
	}
	return MultiTenantConfig{
		Duration: duration,
		Seed:     seed,
		Tenants: []TenantTraffic{
			{
				Tenant: "realtime", App: sched.VideoAnalytics,
				Rate: 30 * scale, Diurnal: 0.2,
				NumAdapters: 4, AdapterOffset: 0, Skew: 0.7,
				MinInputTokens: 32, MaxInputTokens: 96, MaxOutputTokens: 2,
				Deadline: 250 * time.Millisecond,
			},
			{
				Tenant: "interactive", App: sched.VisualRetrieval,
				Rate: 15 * scale, Diurnal: 0.5,
				NumAdapters: 8, AdapterOffset: 4, Skew: 0.5,
				MinInputTokens: 64, MaxInputTokens: 256, MaxOutputTokens: 4,
				Deadline: time.Second,
			},
			{
				Tenant: "batch", App: sched.VisualRetrieval,
				Rate: 20 * scale, Diurnal: 0.1,
				BurstRate: 60 * scale, BurstEvery: 10 * time.Second, BurstDuration: 2 * time.Second,
				NumAdapters: 12, AdapterOffset: 12, Skew: 0.4,
				MinInputTokens: 256, MaxInputTokens: 512, MaxOutputTokens: 6,
			},
		},
	}
}
