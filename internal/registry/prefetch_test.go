package registry

import (
	"testing"
	"time"
)

func TestPrefetcherWarmsAndCaps(t *testing.T) {
	adapters, cat := testAdapters(8, "t")
	ab := adapters[0].Bytes()
	s := NewStore(Config{HostCapacity: 8 * ab, RemoteLatency: time.Millisecond, RemoteBandwidth: 1e9}, cat)
	pf := NewPrefetcher(s, 2)

	if _, started := pf.Observe(0, 0); !started {
		t.Fatal("first observation should start a fetch")
	}
	if _, started := pf.Observe(1, 0); !started {
		t.Fatal("second observation should start a fetch (lookahead 2)")
	}
	if _, started := pf.Observe(2, 0); started {
		t.Fatal("third observation must respect the lookahead cap")
	}
	// Re-observing an in-flight adapter neither starts nor errors.
	if _, started := pf.Observe(0, 0); started {
		t.Fatal("in-flight adapter re-observed should not start again")
	}
	// Drain the link; the warmed adapter is a demand hit.
	done := s.NextFetchDone()
	for s.NextFetchDone() > 0 {
		done = s.NextFetchDone()
		s.Advance(done)
	}
	if st, _, _ := s.Demand(0, done); st != StatusHit {
		t.Fatalf("prefetched adapter: got %v, want hit", st)
	}
	stats := s.Stats()
	if stats.PrefetchFetches != 2 || stats.PrefetchBytes != 2*ab {
		t.Fatalf("prefetch stats = %+v", stats)
	}
	if stats.HostMisses != 0 {
		t.Fatal("prefetch traffic must not count as demand misses")
	}
}

// TestPrefetcherObserveDoesNotAllocate pins the per-event hot path:
// observing an adapter that is already resident (or in flight) must
// be allocation-free, since the admission stage runs it once per
// arrival at cluster scale.
func TestPrefetcherObserveDoesNotAllocate(t *testing.T) {
	adapters, cat := testAdapters(4, "t")
	ab := adapters[0].Bytes()
	s := NewStore(Config{HostCapacity: 8 * ab, RemoteLatency: time.Millisecond, RemoteBandwidth: 1e9}, cat)
	if err := s.SetQuota("t", TenantQuota{GuaranteedBytes: ab}); err != nil {
		t.Fatal(err)
	}
	pf := NewPrefetcher(s, 2)
	_, eta, _ := s.Demand(0, 0)
	s.Advance(eta)
	now := eta
	if avg := testing.AllocsPerRun(1000, func() {
		pf.Observe(0, now) // resident: touch + promote, no fetch
		now += time.Microsecond
	}); avg != 0 {
		t.Fatalf("Observe on resident adapter allocates %.1f times per run", avg)
	}
	// In-flight path is allocation-free too.
	_, _ = pf.Observe(1, now)
	if avg := testing.AllocsPerRun(1000, func() {
		pf.Observe(1, now)
	}); avg != 0 {
		t.Fatalf("Observe on in-flight adapter allocates %.1f times per run", avg)
	}
}
