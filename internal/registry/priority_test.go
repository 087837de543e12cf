package registry

import (
	"testing"
	"time"
)

// mustQuota sets a quota and fails the test on denial (for tests whose
// subject is quota mechanics, not the oversubscription valve).
func mustQuota(t *testing.T, s *Store, tenant string, q TenantQuota) {
	t.Helper()
	if err := s.SetQuota(tenant, q); err != nil {
		t.Fatal(err)
	}
}

// TestDemandJumpsPrefetchQueue pins the link's demand class: a demand
// fetch arriving behind queued prefetches of the same tenant overtakes
// every transfer that has not yet begun.
func TestDemandJumpsPrefetchQueue(t *testing.T) {
	// Slow link: 1 ms latency + 1 s of transfer per adapter, so the
	// queue is deep when the demand arrives.
	adapters, cat := testAdapters(6, "t")
	ab := adapters[0].Bytes()
	s := NewStore(Config{
		HostCapacity:    16 * ab,
		RemoteLatency:   time.Millisecond,
		RemoteBandwidth: float64(ab), // 1 adapter/second
	}, cat)
	for id := 1; id <= 4; id++ { // fill the link with prefetches
		if _, started := s.Prefetch(id, 0); !started {
			t.Fatalf("prefetch %d did not start", id)
		}
	}
	st, eta, _ := s.Demand(5, 0) // the demand arrives last
	if st != StatusStarted {
		t.Fatalf("demand: got %v, want started", st)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Behind the head transfer only, not the 4-second prefetch queue.
	if eta > 2500*time.Millisecond {
		t.Fatalf("demand eta %v should be ~2 transfers (head + own)", eta)
	}

	// Drain the link; every fetch must still land exactly once.
	for s.InflightFetches() > 0 {
		s.Advance(s.NextFetchDone())
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	for id := 1; id <= 5; id++ {
		if !s.HostResident(id, s.NextFetchDone()) {
			t.Fatalf("adapter %d not resident after drain", id)
		}
	}
}

// TestDemandPromotesQueuedPrefetch covers the catch-up path: a demand
// for content whose speculative prefetch is still queued upgrades that
// transfer's class and schedule instead of waiting behind the sweep.
func TestDemandPromotesQueuedPrefetch(t *testing.T) {
	adapters, cat := testAdapters(6, "t")
	ab := adapters[0].Bytes()
	s := NewStore(Config{
		HostCapacity:    16 * ab,
		RemoteLatency:   time.Millisecond,
		RemoteBandwidth: float64(ab),
	}, cat)
	for id := 1; id <= 4; id++ {
		if _, started := s.Prefetch(id, 0); !started {
			t.Fatalf("prefetch %d did not start", id)
		}
	}
	// Adapter 4 is last in the prefetch queue (~4s out); the demand
	// pulls it to just behind the in-transfer head.
	st, eta, _ := s.Demand(4, 0)
	if st != StatusFetching {
		t.Fatalf("got %v, want fetching (prefetch already in flight)", st)
	}
	if eta > 2500*time.Millisecond {
		t.Fatalf("promoted eta %v, want ~2 transfers", eta)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for s.InflightFetches() > 0 {
		s.Advance(s.NextFetchDone())
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestQuotaOversubscriptionDenied pins the host-tier safety valve:
// guarantees beyond MaxPinnedFraction of the tier are denied at
// SetQuota, the previous quota survives, and raising the cap admits
// the same quota.
func TestQuotaOversubscriptionDenied(t *testing.T) {
	adapters, cat := testAdapters(8, "a", "b")
	ab := adapters[0].Bytes()
	s := NewStore(Config{HostCapacity: 8 * ab}, cat) // default valve: 0.5
	mustQuota(t, s, "a", TenantQuota{GuaranteedBytes: 3 * ab})
	if err := s.SetQuota("b", TenantQuota{GuaranteedBytes: 2 * ab}); err == nil {
		t.Fatal("5 of 8 slots guaranteed should exceed the 0.5 valve")
	}
	if _, ok := s.quotas["b"]; ok {
		t.Fatal("denied quota must not be applied")
	}
	// Replacing a tenant's own quota re-counts it, not double-counts.
	mustQuota(t, s, "a", TenantQuota{GuaranteedBytes: 4 * ab})
	// A disabled valve admits anything.
	s2 := NewStore(Config{HostCapacity: 8 * ab, MaxPinnedFraction: -1}, cat)
	mustQuota(t, s2, "a", TenantQuota{GuaranteedBytes: 8 * ab})
}
