package registry

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"valora/internal/lmm"
	"valora/internal/lora"
)

// TestStoreChurnInvariants drives a chunked store with a host tier of
// three adapters through random demands, prefetches, family warm-ups,
// residency probes, quota changes and clock advances, and checks the
// bookkeeping after every call. Completions lag landings by a long
// round trip, so landed chunks of unfinished fetches fill the tier and
// later landings are discarded; the records of aborted fetches and
// evicted adapters go back on the spare list and are reused by the
// next fetches, which CheckInvariants' waiter and spare checks watch.
func TestStoreChurnInvariants(t *testing.T) {
	model := lmm.QwenVL7B()
	adapters := lora.MakeUniformAdapters(model, 12, model.DefaultRank)
	ab := adapters[0].Bytes()
	families := []string{"famA", "famB", "famC"}
	// famA's members share their whole blob, so siblings dedup-hit;
	// the others share half.
	famOf := func(id int) (string, int64) {
		if id/4 == 0 {
			return families[0], ab
		}
		return families[id/4], ab / 2
	}
	tenants := []string{"t0", "t1"}
	cat := CatalogFromFamilies(adapters, func(id int) string { return tenants[id%2] }, famOf)
	const bw = 1e12
	chunkTime := time.Duration(float64(ab/4) / bw * float64(time.Second))
	s := NewStore(Config{
		HostCapacity:      3 * ab,
		RemoteLatency:     20 * chunkTime,
		RemoteBandwidth:   bw,
		MaxInflight:       4,
		ChunkSize:         ab / 4,
		Replicas:          2,
		MaxPinnedFraction: -1,
	}, cat)
	rng := rand.New(rand.NewSource(9))
	now := time.Duration(0)
	for op := 0; op < 20000; op++ {
		id := rng.Intn(len(adapters))
		switch rng.Intn(8) {
		case 0, 1, 2:
			s.Demand(id, now)
		case 3:
			s.Prefetch(id, now)
		case 4:
			s.PrefetchFamily(families[rng.Intn(len(families))], now)
		case 5:
			s.HostResident(id, now)
		case 6:
			// Guarantees mostly grow, up to one adapter per tenant:
			// pins taken mid-fetch are what discards a landing. One
			// change in three halves the guarantee instead, which
			// releases the pins above it.
			tn := tenants[rng.Intn(len(tenants))]
			q := s.quotas[tn]
			if rng.Intn(3) == 0 {
				q.GuaranteedBytes /= 2
			} else {
				q.GuaranteedBytes = min(q.GuaranteedBytes+ab/4, ab)
			}
			q.BurstBytes = int64(rng.Intn(2)) * ab
			mustQuota(t, s, tn, q)
		case 7:
			now += time.Duration(rng.Int63n(int64(8 * chunkTime)))
			s.Advance(now)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
	}
	st := s.Stats()
	if st.Discarded == 0 || st.Evictions == 0 || st.DedupHits == 0 || st.ChunkEvictions == 0 {
		t.Fatalf("the run missed a path it exists to cover: %+v", st)
	}
}

// TestSetQuotaLoweredReleasesPins lowers a guarantee below the pins it
// already holds: the pin is released, not evicted, and the bookkeeping
// still holds.
func TestSetQuotaLoweredReleasesPins(t *testing.T) {
	model := lmm.QwenVL7B()
	adapters := lora.MakeUniformAdapters(model, 2, model.DefaultRank)
	ab := adapters[0].Bytes()
	cat := CatalogFromFamilies(adapters, func(int) string { return "t" }, nil)
	s := NewStore(Config{
		HostCapacity:      2 * ab,
		RemoteLatency:     time.Millisecond,
		RemoteBandwidth:   1e12,
		ChunkSize:         ab / 2,
		MaxPinnedFraction: -1,
	}, cat)
	mustQuota(t, s, "t", TenantQuota{GuaranteedBytes: ab})
	s.Demand(0, 0)
	now := drain(s, 0)
	if !s.HostResident(0, now) || s.tenantPinned["t"] != ab {
		t.Fatalf("adapter 0 resident %v with %d pinned bytes, want it landed pinned", s.HostResident(0, now), s.tenantPinned["t"])
	}
	mustQuota(t, s, "t", TenantQuota{GuaranteedBytes: ab / 2})
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if s.tenantPinned["t"] != 0 || !s.HostResident(0, now) {
		t.Fatalf("%d bytes still pinned, resident %v: want the pin released and the adapter kept", s.tenantPinned["t"], s.HostResident(0, now))
	}
}

// TestDiscardedChunkRefetchWaiters pins the waiter slice a discarded
// landing hands back: W and X fetch at once onto a host tier that fits
// one of them, and W's slow round trip keeps it unfinished (and so
// unevictable) when X's first chunk lands, so that landing is
// discarded and X aborted. Z, X's sibling over the same chunks, then
// refetches them; each chunk's waiters must be exactly Z's fetch,
// which reuses X's record.
func TestDiscardedChunkRefetchWaiters(t *testing.T) {
	model := lmm.QwenVL7B()
	adapters := lora.MakeUniformAdapters(model, 3, model.DefaultRank)
	ab := adapters[0].Bytes()
	const w, x, z = 0, 1, 2
	cat := CatalogFromFamilies(adapters, nil, func(id int) (string, int64) {
		if id == w {
			return "", 0
		}
		return "fam", ab // X and Z share every chunk
	})
	const bw = 1e12
	chunkTime := time.Duration(float64(ab/2) / bw * float64(time.Second))
	s := NewStore(Config{
		HostCapacity:    ab,
		RemoteLatency:   10 * chunkTime,
		RemoteBandwidth: bw,
		ChunkSize:       ab / 2,
		Replicas:        2,
	}, cat)
	check := func() {
		t.Helper()
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []int{w, x} {
		if st, _, _ := s.Demand(id, 0); st != StatusStarted {
			t.Fatalf("adapter %d: %v, want started", id, st)
		}
		check()
	}
	xEnt, _ := cat.Resolve(x)
	xRec := s.ch.adapters[xEnt.Digest]
	// W's chunks land at chunkTime, X's at twice that, with W still
	// waiting out its round trip.
	s.Advance(2 * chunkTime)
	check()
	if got := s.Stats().Discarded; got != 1 {
		t.Fatalf("Discarded = %d, want X's first landing dropped", got)
	}
	if s.ch.adapters[xEnt.Digest] != nil || s.ch.spare != xRec {
		t.Fatal("the aborted fetch's record is not on the spare list")
	}
	now := drain(s, 2*chunkTime)
	check()
	if !s.HostResident(w, now) {
		t.Fatal("W not resident")
	}

	if st, _, _ := s.Demand(z, now); st != StatusStarted {
		t.Fatalf("Z: %v, want started", st)
	}
	check()
	zEnt, _ := cat.Resolve(z)
	zRec := s.ch.adapters[zEnt.Digest]
	if zRec != xRec {
		t.Fatal("Z's fetch did not reuse the aborted fetch's record")
	}
	if zRec.key != zEnt.Digest || !zRec.fetching || !zRec.demand || zRec.missing != 2 || zRec.requested != now {
		t.Fatalf("the reused record carries stale state: %+v", *zRec)
	}
	for _, c := range zRec.chunks {
		if !slices.Equal(c.waiters, []*chunkAdapter{zRec}) {
			t.Fatalf("chunk %x waiters %v, want exactly Z's fetch", c.digest, c.waiters)
		}
	}
	now = drain(s, now)
	check()
	if !s.HostResident(z, now) || s.Stats().Discarded != 1 {
		t.Fatalf("Z not resident, or its landing was discarded too: %+v", s.Stats())
	}
}
