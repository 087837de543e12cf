package registry

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"valora/internal/lmm"
	"valora/internal/lora"
	"valora/internal/sim"
	"valora/internal/trace"
)

// familyAdapters builds fams families of perFam adapters each, every
// family sharing the leading sharedBytes of its members' blobs, all
// owned by tenantOf (nil = shared).
func familyAdapters(fams, perFam int, sharedBytes int64, tenantOf func(id int) string) ([]*lora.Adapter, *Catalog) {
	model := lmm.QwenVL7B()
	adapters := lora.MakeUniformAdapters(model, fams*perFam, model.DefaultRank)
	famOf := func(id int) (string, int64) {
		return "fam" + string(rune('A'+id/perFam)), sharedBytes
	}
	return adapters, CatalogFromFamilies(adapters, tenantOf, famOf)
}

// drain advances the store past every in-flight fetch.
func drain(s *Store, now time.Duration) time.Duration {
	for {
		d := s.NextFetchDone()
		if d == sim.Never {
			return now
		}
		if d > now {
			now = d
		}
		s.Advance(now)
	}
}

// TestChunkSiblingDedupTransfersSharedPrefixOnce is the fetch-byte
// accounting regression: fetching two family siblings back-to-back
// must transfer the shared prefix once — both when the second demand
// arrives after the first completed (chunks resident) and while it is
// still in flight (chunks riding).
func TestChunkSiblingDedupTransfersSharedPrefixOnce(t *testing.T) {
	model := lmm.QwenVL7B()
	ab := model.AdapterBytes(model.DefaultRank)
	chunkSize := ab / 8
	_, cat := familyAdapters(1, 2, ab/2, nil)
	ent, _ := cat.Resolve(1)
	sharedN := sharedChunkCount(ent, chunkSize)
	if sharedN == 0 {
		t.Fatal("test setup: no shared chunks")
	}
	var sharedB, privateB int64
	for i, sp := range chunkSpans(ent, chunkSize) {
		if i < sharedN {
			sharedB += sp.Bytes
		} else {
			privateB += sp.Bytes
		}
	}

	t.Run("sequential", func(t *testing.T) {
		s := NewStore(Config{HostCapacity: 8 * ab, ChunkSize: chunkSize,
			RemoteLatency: time.Millisecond, RemoteBandwidth: 1e9}, cat)
		st, _, q0 := s.Demand(0, 0)
		if st != StatusStarted || q0 != ab {
			t.Fatalf("first sibling: status %v queued %d, want started %d", st, q0, ab)
		}
		now := drain(s, 0)
		st, _, q1 := s.Demand(1, now)
		if st != StatusStarted || q1 != privateB {
			t.Fatalf("second sibling: status %v queued %d, want started %d (private tail only)", st, q1, privateB)
		}
		drain(s, now)
		stats := s.Stats()
		if stats.FetchBytes != ab+privateB {
			t.Fatalf("FetchBytes = %d, want %d: shared prefix must be counted once", stats.FetchBytes, ab+privateB)
		}
		if stats.DedupedBytes != sharedB {
			t.Fatalf("DedupedBytes = %d, want %d", stats.DedupedBytes, sharedB)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("in-flight", func(t *testing.T) {
		s := NewStore(Config{HostCapacity: 8 * ab, ChunkSize: chunkSize,
			RemoteLatency: time.Millisecond, RemoteBandwidth: 1e9}, cat)
		if st, _, q := s.Demand(0, 0); st != StatusStarted || q != ab {
			t.Fatalf("first sibling: status %v queued %d", st, q)
		}
		// Second sibling while the first is still on the wire: its
		// shared chunks ride the in-flight transfers.
		st, _, q1 := s.Demand(1, 0)
		if st != StatusStarted || q1 != privateB {
			t.Fatalf("in-flight sibling: status %v queued %d, want started %d", st, q1, privateB)
		}
		now := drain(s, 0)
		if !s.HostResident(0, now) || !s.HostResident(1, now) {
			t.Fatal("both siblings should be resident after drain")
		}
		if stats := s.Stats(); stats.FetchBytes != ab+privateB {
			t.Fatalf("FetchBytes = %d, want %d", stats.FetchBytes, ab+privateB)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestChunkFullDedupIsInstantHit: with the whole blob family-shared,
// a sibling of a resident adapter is a demand hit without any
// transfer.
func TestChunkFullDedupIsInstantHit(t *testing.T) {
	model := lmm.QwenVL7B()
	ab := model.AdapterBytes(model.DefaultRank)
	_, cat := familyAdapters(1, 2, ab, nil)
	s := NewStore(Config{HostCapacity: 8 * ab, ChunkSize: ab,
		RemoteLatency: time.Millisecond, RemoteBandwidth: 1e9}, cat)
	s.Demand(0, 0)
	now := drain(s, 0)
	if !s.HostResident(1, now) {
		t.Fatal("sibling sharing every chunk should read as host-resident")
	}
	st, _, q := s.Demand(1, now)
	if st != StatusHit || q != 0 {
		t.Fatalf("full-dedup sibling: status %v queued %d, want hit 0", st, q)
	}
	stats := s.Stats()
	if stats.DedupHits != 1 {
		t.Fatalf("DedupHits = %d, want 1", stats.DedupHits)
	}
	if stats.FetchBytes != ab {
		t.Fatalf("FetchBytes = %d, want %d", stats.FetchBytes, ab)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestChunkEvictionSparesSharedChunks: evicting one sibling frees
// only its private tail while another sibling is resident — the
// refcounted shared prefix stays, and the survivor stays host-hit.
func TestChunkEvictionSparesSharedChunks(t *testing.T) {
	model := lmm.QwenVL7B()
	ab := model.AdapterBytes(model.DefaultRank)
	chunkSize := ab / 8
	_, cat := familyAdapters(2, 2, ab/2, nil)
	ent, _ := cat.Resolve(0)
	sharedN := sharedChunkCount(ent, chunkSize)
	var sharedB, privateB int64
	for i, sp := range chunkSpans(ent, chunkSize) {
		if i < sharedN {
			sharedB += sp.Bytes
		} else {
			privateB += sp.Bytes
		}
	}
	// Room for one family: both siblings (shared once) but not a third
	// adapter from another family without eviction.
	capacity := sharedB + 2*privateB
	s := NewStore(Config{HostCapacity: capacity, ChunkSize: chunkSize,
		RemoteLatency: time.Millisecond, RemoteBandwidth: 1e9}, cat)
	s.Demand(0, 0)
	now := drain(s, 0)
	s.Demand(1, now)
	now = drain(s, now)
	if got := s.hostUsed(); got != capacity {
		t.Fatalf("family resident: used %d, want %d (shared prefix stored once)", got, capacity)
	}
	// Adapter 2 (family B) forces eviction. Freeing both siblings'
	// private tails is enough only if the shared prefix survives the
	// first eviction (the victims' shared chunks keep refs>0).
	st, _, _ := s.Demand(2, now)
	if st != StatusStarted {
		t.Fatalf("cross-family demand: %v, want started", st)
	}
	now = drain(s, now)
	if !s.HostResident(2, now) {
		t.Fatal("family-B adapter should be resident after eviction")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	stats := s.Stats()
	if stats.Evictions == 0 {
		t.Fatal("expected evictions under pressure")
	}
	// Whoever was evicted, no chunk referenced by a resident adapter
	// may have gone: re-demanding an evicted sibling must queue at
	// most its private tail as long as one sibling survived, or its
	// full size if both went.
	if s.HostResident(0, now) && s.HostResident(1, now) {
		t.Fatal("eviction should have displaced at least one sibling")
	}
}

// TestPrefetchFamilyWarmsSharedPrefix: warming a family pre-stages
// exactly the shared chunk prefix, after which every member demand
// queues only its private tail.
func TestPrefetchFamilyWarmsSharedPrefix(t *testing.T) {
	model := lmm.QwenVL7B()
	ab := model.AdapterBytes(model.DefaultRank)
	chunkSize := ab / 8
	_, cat := familyAdapters(1, 4, ab/2, nil)
	ent, _ := cat.Resolve(0)
	sharedN := sharedChunkCount(ent, chunkSize)
	var sharedB, privateB int64
	for i, sp := range chunkSpans(ent, chunkSize) {
		if i < sharedN {
			sharedB += sp.Bytes
		} else {
			privateB += sp.Bytes
		}
	}
	s := NewStore(Config{HostCapacity: 8 * ab, ChunkSize: chunkSize,
		RemoteLatency: time.Millisecond, RemoteBandwidth: 1e9}, cat)
	eta, started := s.PrefetchFamily("famA", 0)
	if !started || eta <= 0 {
		t.Fatalf("PrefetchFamily: started=%v eta=%v", started, eta)
	}
	now := drain(s, 0)
	if got := s.hostUsed(); got != sharedB {
		t.Fatalf("warm set holds %d bytes, want shared prefix %d", got, sharedB)
	}
	if stats := s.Stats(); stats.PrefetchBytes != sharedB {
		t.Fatalf("PrefetchBytes = %d, want %d", stats.PrefetchBytes, sharedB)
	}
	for id := 0; id < 4; id++ {
		st, _, q := s.Demand(id, now)
		if st != StatusStarted || q != privateB {
			t.Fatalf("member %d after family warm: status %v queued %d, want started %d", id, st, q, privateB)
		}
		now = drain(s, now)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestChunkStoreInvariantsProperty drives random demand/prefetch/
// family-warm/advance/quota sequences — across chunk sizes, replica
// counts and capacities — and asserts the store invariants after every
// operation: refcounts never negative and every resident chunk
// referenced, Σ resident chunk bytes ≤ capacity and == the used
// counter, pinned bytes within guaranteed quotas, and no chunk
// referenced by a resident adapter ever evicted (all enforced by
// CheckInvariants).
func TestChunkStoreInvariantsProperty(t *testing.T) {
	model := lmm.QwenVL7B()
	ab := model.AdapterBytes(model.DefaultRank)

	// Family adapters of one size, with shared prefixes.
	t.Run("families", func(t *testing.T) {
		tenants := []string{"a", "b", ""}
		for trial := 0; trial < 15; trial++ {
			rng := rand.New(rand.NewSource(int64(4000 + trial)))
			fams := 2 + rng.Intn(4)
			perFam := 1 + rng.Intn(4)
			shared := int64(rng.Intn(9)) * ab / 8 // 0..ab
			chunkSize := ab / int64(1+rng.Intn(12))
			tenantOf := func(id int) string { return tenants[id%len(tenants)] }
			_, cat := familyAdapters(fams, perFam, shared, tenantOf)
			capacity := int64(1+rng.Intn(6)) * ab
			s := NewStore(Config{
				HostCapacity:      capacity,
				RemoteLatency:     time.Millisecond,
				RemoteBandwidth:   1e9,
				ChunkSize:         chunkSize,
				Replicas:          1 + rng.Intn(3),
				MaxPinnedFraction: -1,
				LinkWeights:       map[string]float64{"a": 1, "b": 2},
			}, cat)
			for _, tn := range tenants[:2] {
				if rng.Intn(2) == 0 {
					s.SetQuota(tn, TenantQuota{GuaranteedBytes: int64(rng.Intn(2)) * ab,
						BurstBytes: int64(rng.Intn(2)) * ab})
				}
			}
			label := fmt.Sprintf("trial %d (chunk=%d shared=%d)", trial, chunkSize, shared)
			exerciseStore(t, label, s, rng, fams*perFam, fams, 300, 30)
		}
	})

	// Standalone adapters of mixed ranks (so mixed sizes, exercising
	// partial-fit eviction), one chunk each or a few.
	t.Run("mixed-rank", func(t *testing.T) {
		tenants := []string{"a", "b", "c", ""}
		unit := model.AdapterBytes(16)
		for trial := 0; trial < 20; trial++ {
			rng := rand.New(rand.NewSource(int64(1000 + trial)))
			universe := 8 + rng.Intn(40)
			adapters := make([]*lora.Adapter, universe)
			for i := range adapters {
				rank := []int{16, 32, 64}[rng.Intn(3)]
				adapters[i] = &lora.Adapter{ID: i, Name: fmt.Sprintf("mixed-%d", i), Rank: rank, Model: model}
			}
			cat := CatalogFromAdapters(adapters, func(id int) string { return tenants[id%len(tenants)] })
			chunkSize := int64(0) // one chunk per adapter
			if k := rng.Intn(3); k > 0 {
				chunkSize = unit / int64(k)
			}
			s := NewStore(Config{
				HostCapacity:    int64(2+rng.Intn(10)) * unit,
				RemoteLatency:   time.Millisecond,
				RemoteBandwidth: 1e9,
				ChunkSize:       chunkSize,
				// Random quotas may exceed any fixed fraction of the
				// random capacity; the valve has its own test.
				MaxPinnedFraction: -1,
			}, cat)
			for _, tn := range tenants[:3] {
				if rng.Intn(2) == 0 {
					s.SetQuota(tn, TenantQuota{GuaranteedBytes: int64(rng.Intn(3)) * unit,
						BurstBytes: int64(rng.Intn(3)) * unit})
				}
			}
			label := fmt.Sprintf("trial %d (chunk=%d)", trial, chunkSize)
			exerciseStore(t, label, s, rng, universe, 0, 400, 200)
		}
	})
}

// exerciseStore runs ops random operations against s — demands,
// prefetches, family warms (when fams > 0), advances by up to stepMs
// and full drains — checking the invariants and the capacity bound
// after each, then drains the links and checks that nothing is left in
// flight.
func exerciseStore(t *testing.T, label string, s *Store, rng *rand.Rand, universe, fams, ops, stepMs int) {
	t.Helper()
	var now time.Duration
	for op := 0; op < ops; op++ {
		id := rng.Intn(universe)
		switch rng.Intn(6) {
		case 0, 1:
			s.Demand(id, now)
		case 2:
			s.Prefetch(id, now)
		case 3:
			if fams > 0 {
				s.PrefetchFamily("fam"+string(rune('A'+rng.Intn(fams))), now)
			} else {
				s.Demand(id, now)
			}
		case 4:
			now += time.Duration(rng.Intn(stepMs)) * time.Millisecond
			s.Advance(now)
		case 5:
			now = drain(s, now)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("%s op %d: %v", label, op, err)
		}
		if s.hostUsed() > s.cfg.HostCapacity {
			t.Fatalf("%s op %d: used %d beyond capacity %d", label, op, s.hostUsed(), s.cfg.HostCapacity)
		}
	}
	// Full drain must leave no in-flight state behind.
	drain(s, now)
	if got := s.InflightFetches(); got != 0 {
		t.Fatalf("%s: %d fetches still in flight after drain", label, got)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("%s post-drain: %v", label, err)
	}
}

// TestAbortedFetchFreesLandedChunks is the host-capacity leak
// regression: when a multi-chunk fetch is discarded mid-way (pins grew
// past its admission check), the chunks it already landed must leave
// the tier with it. Otherwise they stay resident with no references,
// count against capacity, and no eviction pass can ever free them.
func TestAbortedFetchFreesLandedChunks(t *testing.T) {
	model := lmm.QwenVL7B()
	u := model.AdapterBytes(16)
	mk := func(id, rank int) *lora.Adapter {
		return &lora.Adapter{ID: id, Name: fmt.Sprintf("abort-%d", id), Rank: rank, Model: model}
	}
	// A and B (tenant t) and Y (tenant x) are one chunk each; X (tenant
	// x) is two.
	const a, b, x, y = 0, 1, 2, 3
	cat := NewCatalog()
	cat.Add(mk(a, 16), "t")
	cat.Add(mk(b, 16), "t")
	cat.Add(mk(x, 32), "x")
	cat.Add(mk(y, 16), "x")
	s := NewStore(Config{HostCapacity: 3 * u, ChunkSize: u, RemoteLatency: time.Millisecond,
		RemoteBandwidth: 1e9, MaxPinnedFraction: -1}, cat)
	mustQuota(t, s, "t", TenantQuota{GuaranteedBytes: u})

	s.Demand(a, 0) // lands pinned
	now := drain(s, 0)
	s.Demand(b, now) // lands unpinned: t's guarantee is spent
	now = drain(s, now)

	// X is admitted against one pinned chunk: 2u + u fits 3u.
	if st, _, _ := s.Demand(x, now); st != StatusStarted {
		t.Fatalf("X: %v, want started", st)
	}
	chunkTime := time.Duration(float64(u) / 1e9 * float64(time.Second))
	// After X's first chunk landed, t's guarantee grows and a hit on B
	// takes the new pin: X's second chunk finds nothing to evict.
	now += chunkTime + chunkTime/2
	mustQuota(t, s, "t", TenantQuota{GuaranteedBytes: 2 * u})
	if st, _, _ := s.Demand(b, now); st != StatusHit {
		t.Fatalf("B: %v, want hit", st)
	}
	now = drain(s, now)
	if got := s.Stats().Discarded; got != 1 {
		t.Fatalf("Discarded = %d, want X's second chunk dropped", got)
	}
	if got := s.hostUsed(); got != 2*u {
		t.Fatalf("after the abort: used %d, want %d (A and B only)", got, 2*u)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The freed room admits the next one-chunk demand.
	if st, _, _ := s.Demand(y, now); st != StatusStarted {
		t.Fatalf("Y: %v, want started", st)
	}
	now = drain(s, now)
	if !s.HostResident(y, now) {
		t.Fatalf("Y not resident: discarded %d times", s.Stats().Discarded-1)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFetchObserverRows pins every field of the trace.FetchRecord rows
// the store hands its fetch observer: a demand fetch, a family sibling
// whose shared chunks ride that fetch's in-flight transfers, and a
// prefetch of another tenant's family once the link is idle.
func TestFetchObserverRows(t *testing.T) {
	model := lmm.QwenVL7B()
	ab := model.AdapterBytes(model.DefaultRank)
	chunkSize := ab / 8
	tenantOf := func(id int) string { return []string{"a", "b"}[id/2] }
	_, cat := familyAdapters(2, 2, ab/2, tenantOf)
	ent, _ := cat.Resolve(1)
	spans := chunkSpans(ent, chunkSize)
	var privateB int64
	for _, sp := range spans[sharedChunkCount(ent, chunkSize):] {
		privateB += sp.Bytes
	}
	const bw, lat = 1e9, time.Millisecond
	wire := func(b int64) time.Duration { return time.Duration(float64(b) / bw * float64(time.Second)) }

	s := NewStore(Config{HostCapacity: 8 * ab, ChunkSize: chunkSize, RemoteLatency: lat, RemoteBandwidth: bw}, cat)
	var rows []trace.FetchRecord
	s.SetFetchObserver(func(r trace.FetchRecord) { rows = append(rows, r) })

	st, done0, _ := s.Demand(0, 0)
	if st != StatusStarted {
		t.Fatalf("demand: status %v, want started", st)
	}
	st, done1, _ := s.Demand(1, 0)
	if st != StatusStarted {
		t.Fatalf("riding sibling: status %v, want started", st)
	}
	now := drain(s, 0)
	done2, started := s.Prefetch(2, now)
	if !started {
		t.Fatal("prefetch did not start a fetch")
	}
	drain(s, now)

	// One link: the sibling's private tail queues behind the whole
	// first adapter, and the prefetch starts on an idle link.
	if want := wire(ab) + lat; done0 != want {
		t.Fatalf("demand done at %v, want %v", done0, want)
	}
	if want := wire(ab) + wire(privateB) + lat; done1 != want {
		t.Fatalf("riding sibling done at %v, want %v", done1, want)
	}
	if want := now + wire(ab) + lat; done2 != want {
		t.Fatalf("prefetch done at %v, want %v", done2, want)
	}
	want := []trace.FetchRecord{
		{Tenant: "a", Family: "famA", Bytes: ab, Chunks: len(spans), Demand: true, Requested: 0, Done: done0},
		{Tenant: "a", Family: "famA", Bytes: privateB, Chunks: len(spans), Demand: true, Requested: 0, Done: done1},
		{Tenant: "b", Family: "famB", Bytes: ab, Chunks: len(spans), Demand: false, Requested: now, Done: done2},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("observer rows:\ngot  %+v\nwant %+v", rows, want)
	}
}
