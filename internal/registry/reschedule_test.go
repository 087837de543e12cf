package registry

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"valora/internal/lmm"
)

// transferRow is one queued transfer's schedule.
type transferRow struct {
	Link        int
	Chunk       uint64
	Tenant      string
	Demand      bool
	Scheduled   bool
	Start, Done time.Duration
}

// schedule is a store's fetch timing: every queued transfer, link by
// link in queue order, and every in-flight adapter's completion
// estimate by key.
type schedule struct {
	Transfers []transferRow
	Done      map[uint64]time.Duration
}

func scheduleOf(s *Store) schedule {
	sch := schedule{Done: map[uint64]time.Duration{}}
	for _, l := range s.ch.links {
		for _, t := range l.queue {
			sch.Transfers = append(sch.Transfers, transferRow{Link: l.id, Chunk: t.ch.digest, Tenant: t.tenant,
				Demand: t.demand, Scheduled: t.scheduled, Start: t.start, Done: t.done})
		}
	}
	for _, ca := range s.ch.inflight {
		sch.Done[ca.key] = ca.done
	}
	return sch
}

// TestFetchRescheduleMatchesPerChunk runs random demand, prefetch and
// family-warm sequences (upgrades of in-flight prefetches included,
// and calls whose now lags the store's high-water mark) through two
// stores over the same catalog: one rescheduling each link after every
// enqueued chunk (the per-chunk reference path), one on the default
// fetch path. Every call must answer the same, and after every call
// every transfer's start and done and every in-flight adapter's done
// must match.
func TestFetchRescheduleMatchesPerChunk(t *testing.T) {
	model := lmm.QwenVL7B()
	ab := model.AdapterBytes(model.DefaultRank)
	tenants := []string{"a", "b", ""}
	tenantOf := func(id int) string { return tenants[id%len(tenants)] }
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		fams, perFam := 1+rng.Intn(4), 1+rng.Intn(5)
		shared := int64(rng.Intn(9)) * ab / 8
		cfg := Config{
			HostCapacity:      int64(2+rng.Intn(10)) * ab,
			RemoteLatency:     time.Millisecond,
			RemoteBandwidth:   1e9,
			MaxInflight:       2 + rng.Intn(8),
			ChunkSize:         ab / int64(1+rng.Intn(12)),
			Replicas:          1 + rng.Intn(3),
			MaxPinnedFraction: -1,
			LinkWeights:       map[string]float64{"a": 1, "b": 3},
		}
		_, catRef := familyAdapters(fams, perFam, shared, tenantOf)
		_, cat := familyAdapters(fams, perFam, shared, tenantOf)
		ref, got := NewStore(cfg, catRef), NewStore(cfg, cat)
		ref.eachChunk = true
		if rng.Intn(2) == 0 {
			q := TenantQuota{GuaranteedBytes: ab, BurstBytes: ab}
			ref.SetQuota("a", q)
			got.SetQuota("a", q)
		}
		universe := fams * perFam
		var now time.Duration
		for op := 0; op < 300; op++ {
			id := rng.Intn(universe)
			at := now
			if rng.Intn(5) == 0 {
				// A lagging instance clock: the store has advanced past it.
				at -= time.Duration(rng.Intn(20)) * time.Millisecond
			}
			var a, b any
			switch rng.Intn(7) {
			case 0, 1, 2:
				s1, e1, q1 := ref.Demand(id, at)
				s2, e2, q2 := got.Demand(id, at)
				a, b = [3]any{s1, e1, q1}, [3]any{s2, e2, q2}
			case 3, 4:
				e1, ok1 := ref.Prefetch(id, at)
				e2, ok2 := got.Prefetch(id, at)
				a, b = [2]any{e1, ok1}, [2]any{e2, ok2}
			case 5:
				fam := "fam" + string(rune('A'+rng.Intn(fams)))
				e1, ok1 := ref.PrefetchFamily(fam, at)
				e2, ok2 := got.PrefetchFamily(fam, at)
				a, b = [2]any{e1, ok1}, [2]any{e2, ok2}
			case 6:
				now += time.Duration(rng.Intn(40)) * time.Millisecond
				ref.Advance(now)
				got.Advance(now)
			}
			label := fmt.Sprintf("trial %d op %d", trial, op)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: per-chunk path answered %v, default path %v", label, a, b)
			}
			if r, g := scheduleOf(ref), scheduleOf(got); !reflect.DeepEqual(r, g) {
				t.Fatalf("%s: schedules diverge\nper-chunk: %+v\n  default: %+v", label, r, g)
			}
			if err := got.CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
		if r, g := ref.Stats(), got.Stats(); r != g {
			t.Fatalf("trial %d: stats diverge\nper-chunk: %+v\n  default: %+v", trial, r, g)
		}
	}
}
