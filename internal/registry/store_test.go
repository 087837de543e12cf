package registry

import (
	"sync"
	"testing"
	"time"

	"valora/internal/lmm"
	"valora/internal/lora"
	"valora/internal/sim"
)

// testAdapters builds n uniform adapters owned by tenants in
// round-robin over names.
func testAdapters(n int, names ...string) ([]*lora.Adapter, *Catalog) {
	model := lmm.QwenVL7B()
	adapters := lora.MakeUniformAdapters(model, n, model.DefaultRank)
	tenantOf := func(id int) string {
		if len(names) == 0 {
			return ""
		}
		return names[id%len(names)]
	}
	return adapters, CatalogFromAdapters(adapters, tenantOf)
}

func TestEnsureFetchesThenHits(t *testing.T) {
	adapters, cat := testAdapters(4, "a")
	ab := adapters[0].Bytes()
	s := NewStore(Config{HostCapacity: 2 * ab, RemoteLatency: 10 * time.Millisecond, RemoteBandwidth: 1e9}, cat)

	st, eta, _ := s.Demand(0, 0)
	if st != StatusStarted {
		t.Fatalf("first demand: got %v, want started", st)
	}
	wantETA := 10*time.Millisecond + time.Duration(float64(ab)/1e9*float64(time.Second))
	if eta != wantETA {
		t.Fatalf("eta = %v, want %v", eta, wantETA)
	}
	if s.NextFetchDone() != eta {
		t.Fatalf("NextFetchDone = %v, want %v", s.NextFetchDone(), eta)
	}

	// Before completion: fetching, not resident.
	if st, _, _ := s.Demand(0, eta-time.Millisecond); st != StatusFetching {
		t.Fatalf("mid-fetch demand: got %v, want fetching", st)
	}
	if s.HostResident(0, eta-time.Millisecond) {
		t.Fatal("resident before fetch completion")
	}

	// At completion: hit.
	if st, _, _ := s.Demand(0, eta); st != StatusHit {
		t.Fatalf("post-fetch demand: got %v, want hit", st)
	}
	if !s.HostResident(0, eta) {
		t.Fatal("not resident after fetch completion")
	}
	if s.NextFetchDone() != sim.Never {
		t.Fatal("NextFetchDone should be Never when the link is idle")
	}
	stats := s.Stats()
	// The mid-fetch retry is not re-counted: one miss per cold demand.
	if stats.HostHits != 1 || stats.HostMisses != 1 || stats.Fetches != 1 || stats.FetchBytes != ab {
		t.Fatalf("stats = %+v", stats)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLinkSerializesFetches(t *testing.T) {
	_, cat := testAdapters(3, "a")
	s := NewStore(Config{HostCapacity: 64 << 30, RemoteLatency: time.Millisecond, RemoteBandwidth: 1e9}, cat)
	_, eta0, _ := s.Demand(0, 0)
	_, eta1, _ := s.Demand(1, 0)
	if eta1 <= eta0 {
		t.Fatalf("second fetch (%v) should queue behind the first (%v)", eta1, eta0)
	}
	// The second transfer starts when the first leaves the wire; the
	// per-fetch latency is charged after the last byte, not on the wire.
	transfer := eta0 - time.Millisecond
	if eta1 != eta0+transfer {
		t.Fatalf("eta1 = %v, want %v (serialized)", eta1, eta0+transfer)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEvictionRespectsLRUAndCapacity(t *testing.T) {
	adapters, cat := testAdapters(4, "a")
	ab := adapters[0].Bytes()
	s := NewStore(Config{HostCapacity: 2 * ab, RemoteLatency: time.Millisecond, RemoteBandwidth: 1e12}, cat)
	now := time.Duration(0)
	for id := 0; id < 2; id++ {
		_, eta, _ := s.Demand(id, now)
		now = eta
		s.Advance(now)
	}
	// Touch 0 so 1 becomes LRU, then demand 2: 1 must be evicted when
	// the fetched bytes land (not at fetch start — the warm set
	// survives the transfer). The bytes land one RemoteLatency before
	// the fetch completes.
	if st, _, _ := s.Demand(0, now); st != StatusHit {
		t.Fatal("0 should be resident")
	}
	st, eta, _ := s.Demand(2, now)
	if st != StatusStarted {
		t.Fatal("2 should start fetching")
	}
	if !s.HostResident(1, eta-time.Millisecond-time.Nanosecond) {
		t.Fatal("1 evicted before the fetched bytes landed")
	}
	now = eta
	s.Advance(now)
	if s.HostResident(1, now) {
		t.Fatal("1 should have been evicted (LRU)")
	}
	if !s.HostResident(0, now) {
		t.Fatal("0 (just touched) should stay resident")
	}
	if s.hostUsed() > 2*ab {
		t.Fatalf("over-committed: used %d > %d", s.hostUsed(), 2*ab)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestQuotaPinsSurviveEvictionAndRotate(t *testing.T) {
	adapters, cat := testAdapters(6, "hot")
	ab := adapters[0].Bytes()
	s := NewStore(Config{HostCapacity: 3 * ab, RemoteLatency: time.Millisecond, RemoteBandwidth: 1e12}, cat)
	mustQuota(t, s, "hot", TenantQuota{GuaranteedBytes: 1 * ab})

	now := time.Duration(0)
	fetch := func(id int) {
		st, eta, _ := s.Demand(id, now)
		if st != StatusStarted && st != StatusHit {
			t.Fatalf("adapter %d: %v", id, st)
		}
		if eta > now {
			now = eta
		}
		s.Advance(now)
	}
	fetch(0) // completes and gets the quota pin
	if s.tenantPinned["hot"] != ab {
		t.Fatalf("pinned = %d, want %d", s.tenantPinned["hot"], ab)
	}
	fetch(1)
	fetch(2)
	// Cache full {0 pinned, 1, 2}. Demand 3 twice: 1 then 2 evict, 0 never.
	fetch(3)
	fetch(4)
	if !s.HostResident(0, now) {
		t.Fatal("pinned adapter 0 was evicted")
	}
	// Touching 3 rotates the quota pin onto it (0 loses the pin).
	if st, _, _ := s.Demand(3, now); st != StatusHit {
		t.Fatal("3 should be resident")
	}
	fetch(5) // needs room: 0 is now unpinned and LRU → evicted
	if s.HostResident(0, now) {
		t.Fatal("0 should have lost its pin to 3 and been evicted")
	}
	if !s.HostResident(3, now) {
		t.Fatal("3 holds the rotated pin and must stay")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBurstProtectionEvictsOverBurstFirst(t *testing.T) {
	// Tenant "a" owns even IDs, "b" odd. "a" has guaranteed+burst
	// covering one adapter; "b" has none. With both tenants resident,
	// a new fetch must evict "b"'s entries before "a"'s protected one.
	adapters, cat := testAdapters(6, "a", "b")
	ab := adapters[0].Bytes()
	s := NewStore(Config{HostCapacity: 3 * ab, RemoteLatency: time.Millisecond, RemoteBandwidth: 1e12}, cat)
	mustQuota(t, s, "a", TenantQuota{BurstBytes: 1 * ab})

	now := time.Duration(0)
	for _, id := range []int{0, 1, 3} { // a:{0}, b:{1,3}
		_, eta, _ := s.Demand(id, now)
		now = eta
		s.Advance(now)
	}
	// 0 is the LRU entry, but it is protected (within a's burst). The
	// landing fetch for 5 must take 1 (b's LRU, unprotected) instead.
	st, eta, _ := s.Demand(5, now)
	if st != StatusStarted {
		t.Fatal("5 should start fetching")
	}
	now = eta
	s.Advance(now)
	if !s.HostResident(0, now) {
		t.Fatal("protected entry 0 was evicted while unprotected victims existed")
	}
	if s.HostResident(1, now) {
		t.Fatal("unprotected LRU entry 1 should have been evicted")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestContentAddressingDedupes(t *testing.T) {
	// Two IDs with identical content share a digest: one fetch serves
	// both.
	model := lmm.QwenVL7B()
	a0 := &lora.Adapter{ID: 0, Name: "shared", Rank: model.DefaultRank, Model: model}
	a1 := &lora.Adapter{ID: 1, Name: "shared", Rank: model.DefaultRank, Model: model}
	cat := NewCatalog()
	cat.Add(a0, "t")
	cat.Add(a1, "t")
	s := NewStore(Config{HostCapacity: 8 * a0.Bytes(), RemoteLatency: time.Millisecond, RemoteBandwidth: 1e12}, cat)
	_, eta, _ := s.Demand(0, 0)
	s.Advance(eta)
	if st, _, _ := s.Demand(1, eta); st != StatusHit {
		t.Fatal("content-identical adapter should hit without a second fetch")
	}
	if s.Stats().Fetches != 1 {
		t.Fatalf("fetches = %d, want 1", s.Stats().Fetches)
	}
}

func TestDeniedWhenEverythingPinned(t *testing.T) {
	adapters, cat := testAdapters(4, "t")
	ab := adapters[0].Bytes()
	// Pinning the whole tier is the point of this test: the safety
	// valve is explicitly disabled.
	s := NewStore(Config{HostCapacity: 2 * ab, RemoteLatency: time.Millisecond, RemoteBandwidth: 1e12, MaxPinnedFraction: -1}, cat)
	mustQuota(t, s, "t", TenantQuota{GuaranteedBytes: 2 * ab})
	now := time.Duration(0)
	for id := 0; id < 2; id++ {
		_, eta, _ := s.Demand(id, now)
		now = eta
		s.Advance(now)
	}
	// Both resident entries are quota-pinned; a third demand cannot
	// make room and must be denied rather than over-commit.
	st, _, _ := s.Demand(2, now)
	if st != StatusDenied {
		t.Fatalf("got %v, want denied", st)
	}
	if s.hostUsed() != 2*ab {
		t.Fatalf("used = %d, want %d", s.hostUsed(), 2*ab)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// An adapter larger than the whole tier can never be hosted: its
// demand is denied with a never-arriving eta (a transient denial's eta
// is 0), and nothing is fetched or reserved for it.
func TestDeniedForeverWhenLargerThanTier(t *testing.T) {
	adapters, cat := testAdapters(2, "t")
	s := NewStore(Config{HostCapacity: adapters[0].Bytes() - 1, RemoteLatency: time.Millisecond, RemoteBandwidth: 1e9}, cat)
	for _, now := range []time.Duration{0, time.Second} {
		if st, eta, _ := s.Demand(0, now); st != StatusDenied || eta != sim.Never {
			t.Fatalf("at %v: got %v eta %v, want denied eta sim.Never", now, st, eta)
		}
	}
	if st := s.Stats(); st.Fetches != 0 || st.FetchDenied != 2 || s.InflightFetches() != 0 || s.hostUsed() != 0 {
		t.Fatalf("an unhostable demand fetched or reserved: %+v, in flight %d, used %d", st, s.InflightFetches(), s.hostUsed())
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUncataloguedBypasses(t *testing.T) {
	_, cat := testAdapters(1, "t")
	s := NewStore(Config{}, cat)
	if st, _, _ := s.Demand(99, 0); st != StatusUncatalogued {
		t.Fatalf("unknown adapter: got %v, want uncatalogued", st)
	}
	if !s.HostResident(99, 0) {
		t.Fatal("uncatalogued adapters are host-resident by definition")
	}
}

// TestStoreConcurrentAccess hammers the exported surface from several
// goroutines (as shard workers sharing a store would) and then checks
// the invariants still hold. Run under -race this is the shard-safety
// gate for the link model; determinism of fetch *ordering* is the
// serving planner's job, not the mutex's.
func TestStoreConcurrentAccess(t *testing.T) {
	adapters, cat := testAdapters(16, "a", "b")
	ab := adapters[0].Bytes()
	s := NewStore(Config{HostCapacity: 6 * ab, RemoteLatency: time.Millisecond, RemoteBandwidth: 1e9}, cat)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			now := time.Duration(0)
			for i := 0; i < 400; i++ {
				id := (g*7 + i) % 16
				switch i % 4 {
				case 0:
					s.Demand(id, now)
				case 1:
					s.Prefetch(id, now)
				case 2:
					s.HostResident(id, now)
				default:
					s.Advance(now)
					s.NextFetchDone()
					s.Stats()
					s.hostUsed()
					s.InflightFetches()
				}
				now += time.Duration(i%5) * 100 * time.Microsecond
			}
		}(g)
	}
	wg.Wait()
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
