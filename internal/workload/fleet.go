package workload

import (
	"fmt"
	"math/rand"
	"time"

	"valora/internal/sched"
	"valora/internal/train"
)

// FleetConfig shapes an adapter-fleet trace: a large universe of
// fine-tuned adapters organized into families (per-site or per-camera
// variants distilled from a common parent, so siblings share a weight
// prefix), exercised by inspection sweeps — bursts of consecutive
// requests that walk through one family's members, the access pattern
// of a periodic fleet-wide inspection job. The pattern is the
// chunk-level distribution stressor: every sweep touches many sibling
// adapters back to back, so a chunk store that deduplicates the
// family's shared prefix transfers it once per sweep instead of once
// per member.
type FleetConfig struct {
	// Rate is sweep starts per second (each sweep emits SweepLen
	// requests), Duration the arrival span.
	Rate     float64
	Duration time.Duration
	// Families × PerFamily is the adapter universe; adapter id f·PerFamily+m
	// is member m of family f.
	Families  int
	PerFamily int
	// FamilySkew is the fraction of sweeps landing on the hottest
	// family; the rest follow a Zipf tail (same convention as
	// RetrievalConfig.Skew).
	FamilySkew float64
	// SweepLen is the number of consecutive family members one sweep
	// visits (capped at PerFamily).
	SweepLen int
	// SweepGap spaces the requests within one sweep (0 means 150ms,
	// a frame-batch cadence).
	SweepGap time.Duration
	// Tenants, when non-empty, assigns families to tenants round-robin
	// and stamps each request with its family's tenant — the per-tenant
	// link fair-queuing sees the same ownership the registry quota does.
	Tenants []string
	Seed    int64
	// Burstiness >1 clusters sweep starts (hyper-exponential gaps);
	// 1 is pure Poisson.
	Burstiness float64
	// VisualTokens per inspected frame (256 for Qwen-VL).
	VisualTokens int
}

// DefaultFleet mirrors the fleet-inspection workload the chunk-store
// experiments replay: short detection prompts, one frame per request,
// terse structured outputs, sweeps of 6 members.
func DefaultFleet(families, perFamily int, rate float64, duration time.Duration, seed int64) FleetConfig {
	return FleetConfig{
		Rate:         rate,
		Duration:     duration,
		Families:     families,
		PerFamily:    perFamily,
		FamilySkew:   0.2,
		SweepLen:     6,
		Seed:         seed,
		Burstiness:   1.3,
		VisualTokens: 256,
	}
}

// AdapterCount reports the size of the adapter universe.
func (c FleetConfig) AdapterCount() int { return c.Families * c.PerFamily }

// FamilyName names family f ("fleet-007").
func (c FleetConfig) FamilyName(f int) string { return fmt.Sprintf("fleet-%03d", f) }

// FamilyOf maps an adapter id to its family name — the mapping
// registry.CatalogFromFamilies must be given so the catalog's family
// structure matches the trace's sweep structure. Ids outside the
// universe belong to no family.
func (c FleetConfig) FamilyOf(id int) string {
	if c.PerFamily <= 0 || id < 0 || id >= c.AdapterCount() {
		return ""
	}
	return c.FamilyName(id / c.PerFamily)
}

// TenantOf maps an adapter id to its owning tenant: families are
// assigned round-robin over Tenants ("" when untenanted).
func (c FleetConfig) TenantOf(id int) string {
	if len(c.Tenants) == 0 || c.PerFamily <= 0 || id < 0 || id >= c.AdapterCount() {
		return ""
	}
	return c.Tenants[(id/c.PerFamily)%len(c.Tenants)]
}

// GenFleet synthesizes an adapter-fleet inspection trace.
func GenFleet(cfg FleetConfig) Trace {
	rng := rand.New(rand.NewSource(cfg.Seed))
	famPicker := NewSkewedPicker(cfg.Families, cfg.FamilySkew, rng)
	if cfg.VisualTokens <= 0 {
		cfg.VisualTokens = 256
	}
	if cfg.Burstiness < 1 {
		cfg.Burstiness = 1
	}
	sweep := cfg.SweepLen
	if sweep <= 0 {
		sweep = 1
	}
	if sweep > cfg.PerFamily {
		sweep = cfg.PerFamily
	}
	gap := cfg.SweepGap
	if gap <= 0 {
		gap = 150 * time.Millisecond
	}

	var out Trace
	var reqs reqAlloc
	var now time.Duration
	var id int64
	for now < cfg.Duration {
		g := rng.ExpFloat64() / cfg.Rate
		if cfg.Burstiness > 1 && rng.Float64() < 0.2 {
			g *= cfg.Burstiness * 2
		} else if cfg.Burstiness > 1 {
			g /= 1 + 0.25*(cfg.Burstiness-1)
		}
		now += time.Duration(g * float64(time.Second))
		if now >= cfg.Duration {
			break
		}

		family := famPicker.Pick()
		start := rng.Intn(cfg.PerFamily)
		at := now
		for i := 0; i < sweep; i++ {
			member := (start + i) % cfg.PerFamily
			adapter := family*cfg.PerFamily + member
			id++
			out = append(out, reqs.alloc(sched.Request{
				ID:           id,
				App:          sched.VideoAnalytics,
				Task:         train.ObjectDetection,
				AdapterID:    adapter,
				Head:         train.LMHead,
				InputTokens:  cfg.VisualTokens + lognormal(rng, 40, 0.5, 8, 160),
				OutputTokens: lognormal(rng, 48, 0.4, 8, 128),
				Images:       1,
				Tenant:       cfg.TenantOf(adapter),
				Arrival:      at,
			}))
			at += time.Duration((0.6 + 0.8*rng.Float64()) * float64(gap))
		}
	}
	return Merge(out)
}
