package serving

import (
	"testing"
	"time"

	"valora/internal/lmm"
	"valora/internal/lora"
	"valora/internal/registry"
	"valora/internal/sched"
	"valora/internal/simgpu"
	"valora/internal/workload"
)

// registryFixture builds a server whose adapters live behind a small
// host cache and a slow remote link.
func registryFixture(t *testing.T, universe, hostSlots int) (*Server, *registry.Store, []*lora.Adapter) {
	t.Helper()
	model := lmm.QwenVL7B()
	adapters := lora.MakeUniformAdapters(model, universe, model.DefaultRank)
	ab := adapters[0].Bytes()
	store := registry.NewStore(registry.Config{
		HostCapacity:    int64(hostSlots) * ab,
		RemoteLatency:   5 * time.Millisecond,
		RemoteBandwidth: 2e9,
	}, registry.CatalogFromAdapters(adapters, nil))
	opts, err := SystemOptions(SystemVaLoRA, simgpu.A100(), model)
	if err != nil {
		t.Fatal(err)
	}
	opts.Registry = lora.NewRegistry(adapters...)
	opts.AdapterPoolBytes = 4 * ab
	opts.Store = store
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	return srv, store, adapters
}

// TestServerColdStartThroughTiers replays a trace whose adapters all
// start remote-only: every first use must ride a fetch (cold start),
// later uses hit the host tier, and the run still completes every
// request with per-tier accounting consistent.
func TestServerColdStartThroughTiers(t *testing.T) {
	srv, store, _ := registryFixture(t, 8, 8)
	trace := workload.GenRetrieval(workload.DefaultRetrieval(6, 10*time.Second, 8, 0.5, 3))
	rep, err := srv.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != len(trace) {
		t.Fatalf("completed %d of %d", rep.Completed, len(trace))
	}
	if rep.ColdStarts == 0 {
		t.Fatal("a remote-only start must produce cold starts")
	}
	if rep.RemoteFetches == 0 || rep.FetchBytes == 0 {
		t.Fatalf("no remote fetch accounted: %+v", rep)
	}
	if rep.HostHits == 0 {
		t.Fatal("warm reuse should hit the host tier")
	}
	if rep.ColdTTFT.P50 <= rep.TTFT.P50 {
		t.Fatalf("cold TTFT p50 (%.2f) should exceed overall TTFT p50 (%.2f)",
			rep.ColdTTFT.P50, rep.TTFT.P50)
	}
	if rep.SwapBytes == 0 {
		t.Fatal("GPU-tier fills must account PCIe bytes")
	}
	if err := store.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDemandFetchCountsOneMissNoPhantomHit is the regression test for
// the host-hit-on-retry inflation bug: a demand fetch books one host
// miss when it starts, and the retry that lands once the fetch
// completes must NOT book a host hit — one demand, one outcome. Before
// the awaitingFetch fix every cold adapter counted both a miss and a
// hit, inflating HostHitRate asymmetrically.
func TestDemandFetchCountsOneMissNoPhantomHit(t *testing.T) {
	srv, store, adapters := registryFixture(t, 2, 2)
	trace := workload.Trace{{
		ID: 1, AdapterID: adapters[0].ID,
		InputTokens: 32, OutputTokens: 4, Arrival: 0,
	}}
	rep, err := srv.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 1 {
		t.Fatalf("completed %d of 1", rep.Completed)
	}
	if rep.HostMisses != 1 || rep.RemoteFetches != 1 {
		t.Fatalf("one cold demand must book exactly one miss/fetch: misses=%d fetches=%d",
			rep.HostMisses, rep.RemoteFetches)
	}
	if rep.HostHits != 0 {
		t.Fatalf("the fetch landing must not count as a host hit, got %d", rep.HostHits)
	}
	if err := store.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestServerHostCachePressure keeps the host tier smaller than the
// adapter universe: evictions must occur, the engine must not
// deadlock, and the tier accounting must stay within capacity.
func TestServerHostCachePressure(t *testing.T) {
	srv, store, _ := registryFixture(t, 12, 5)
	trace := workload.GenRetrieval(workload.DefaultRetrieval(5, 12*time.Second, 12, 0.2, 7))
	rep, err := srv.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != len(trace) {
		t.Fatalf("completed %d of %d", rep.Completed, len(trace))
	}
	if store.Stats().Evictions == 0 {
		t.Fatal("a 5-slot host tier under 12 adapters must evict")
	}
	// CheckInvariants also holds the resident bytes within the 5-slot
	// host capacity, so a leak past it fails here.
	if err := store.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreNilKeepsLegacyBehavior pins the opt-in contract: without a
// store, a run must produce zero tier/cold accounting and identical
// results to the pre-registry engine (the adapter is host-resident by
// assumption).
func TestStoreNilKeepsLegacyBehavior(t *testing.T) {
	model := lmm.QwenVL7B()
	opts, err := SystemOptions(SystemVaLoRA, simgpu.A100(), model)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := srv.Run(workload.GenRetrieval(workload.DefaultRetrieval(4, 5*time.Second, 8, 0.5, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.HostHits != 0 || rep.HostMisses != 0 || rep.RemoteFetches != 0 ||
		rep.ColdStarts != 0 || rep.FetchBytes != 0 {
		t.Fatalf("store-less run leaked tier accounting: %+v", rep)
	}
}

// TestManagedClusterPrefetchWarmsAhead compares a managed cluster
// with and without the admission prefetcher on the same cold-start
// workload (cold candidates pre-marked on the trace, so both runs
// measure the identical population): prefetch must lift the host-tier
// hit rate, convert demand fetches into speculative warming, not
// worsen the cold tail, and account its traffic on the aggregate
// report. The end-to-end p99 comparison across prefetch/quota modes
// lives in the adapter-cold-start bench experiment.
func TestManagedClusterPrefetchWarmsAhead(t *testing.T) {
	model := lmm.QwenVL7B()
	adapters := lora.MakeUniformAdapters(model, 16, model.DefaultRank)
	ab := adapters[0].Bytes()

	run := func(lookahead int) *Report {
		// A tight high-water mark keeps arrivals queued at the cluster,
		// which is exactly the delay a prefetched copy can hide behind —
		// demand fetches cannot even start until the request reaches an
		// instance.
		store := registry.NewStore(registry.Config{
			HostCapacity:    10 * ab,
			RemoteLatency:   5 * time.Millisecond,
			RemoteBandwidth: 2.5e9,
		}, registry.CatalogFromAdapters(adapters, nil))
		build := func(int) (Options, error) {
			opts, err := SystemOptions(SystemVaLoRA, simgpu.A100(), model)
			if err != nil {
				return Options{}, err
			}
			opts.Registry = lora.NewRegistry(adapters...)
			opts.AdapterPoolBytes = 4 * ab
			opts.Store = store
			return opts, nil
		}
		cfg := SchedulingConfig{
			Tenants:           []sched.TenantConfig{{Name: "t", Weight: 1}},
			FairShare:         true,
			HighWater:         3,
			Store:             store,
			PrefetchLookahead: lookahead,
		}
		cl, err := NewManagedCluster(2, NewLeastLoaded(), cfg, build)
		if err != nil {
			t.Fatal(err)
		}
		trace := workload.GenMultiTenant(workload.MultiTenantConfig{
			Duration: 15 * time.Second,
			Seed:     21,
			Tenants: []workload.TenantTraffic{{
				Tenant: "t", Rate: 50,
				NumAdapters: 16, Skew: 0.6, HotSetDriftEvery: 3 * time.Second,
				MinInputTokens: 32, MaxInputTokens: 64, MaxOutputTokens: 2,
			}},
		})
		workload.MarkColdCandidates(trace, 2*time.Second)
		rep, err := cl.Run(trace)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Completed+rep.Rejected+rep.Shed != len(trace) {
			t.Fatalf("lost requests: %d+%d+%d of %d", rep.Completed, rep.Rejected, rep.Shed, len(trace))
		}
		return rep
	}

	baseline := run(0)
	warmed := run(4)
	if baseline.ColdStarts == 0 {
		t.Fatal("baseline should see cold starts")
	}
	if warmed.ColdStarts != baseline.ColdStarts {
		t.Fatalf("pre-marked cold population must match: %d vs %d",
			warmed.ColdStarts, baseline.ColdStarts)
	}
	if warmed.PrefetchFetches == 0 {
		t.Fatal("prefetcher never fired")
	}
	if baseline.PrefetchFetches != 0 {
		t.Fatal("baseline must not prefetch")
	}
	if warmed.HostHitRate() <= baseline.HostHitRate() {
		t.Fatalf("prefetch should lift the host hit rate: %.2f (warmed) vs %.2f (baseline)",
			warmed.HostHitRate(), baseline.HostHitRate())
	}
	if warmed.RemoteFetches >= baseline.RemoteFetches {
		t.Fatalf("prefetch should convert demand fetches into warming: %d (warmed) vs %d (baseline)",
			warmed.RemoteFetches, baseline.RemoteFetches)
	}
	if warmed.ColdTTFT.P99 > baseline.ColdTTFT.P99 {
		t.Fatalf("prefetch worsened the cold tail: p99 %.2f (warmed) vs %.2f (baseline)",
			warmed.ColdTTFT.P99, baseline.ColdTTFT.P99)
	}
}

// TestSiblingFetchBytesCountSharedPrefixOnce is the fetch-byte
// accounting regression at the serving layer: with a chunk-mode store,
// demanding two family siblings back-to-back must bill
// Report.FetchBytes for the shared prefix once — the second fetch
// transfers only its private tail.
func TestSiblingFetchBytesCountSharedPrefixOnce(t *testing.T) {
	model := lmm.QwenVL7B()
	adapters := lora.MakeUniformAdapters(model, 2, model.DefaultRank)
	ab := adapters[0].Bytes()
	chunkSize := ab / 8
	cat := registry.CatalogFromFamilies(adapters, nil,
		func(id int) (string, int64) { return "famA", ab / 2 })
	store := registry.NewStore(registry.Config{
		HostCapacity:    8 * ab,
		RemoteLatency:   5 * time.Millisecond,
		RemoteBandwidth: 2e9,
		ChunkSize:       chunkSize,
	}, cat)
	opts, err := SystemOptions(SystemVaLoRA, simgpu.A100(), model)
	if err != nil {
		t.Fatal(err)
	}
	opts.Registry = lora.NewRegistry(adapters...)
	opts.AdapterPoolBytes = 4 * ab
	opts.Store = store
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	trace := workload.Trace{
		{ID: 1, AdapterID: adapters[0].ID, InputTokens: 32, OutputTokens: 4, Arrival: 0},
		{ID: 2, AdapterID: adapters[1].ID, InputTokens: 32, OutputTokens: 4, Arrival: 200 * time.Millisecond},
	}
	rep, err := srv.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 2 {
		t.Fatalf("completed %d of 2", rep.Completed)
	}
	sharedB := (ab / 2 / chunkSize) * chunkSize
	want := ab + (ab - sharedB)
	if rep.FetchBytes != want {
		t.Fatalf("FetchBytes = %d, want %d: the %d shared-prefix bytes must be transferred once",
			rep.FetchBytes, want, sharedB)
	}
	if rep.RemoteFetches != 2 || rep.HostMisses != 2 {
		t.Fatalf("both siblings are cold: fetches=%d misses=%d", rep.RemoteFetches, rep.HostMisses)
	}
	if st := store.Stats(); st.DedupedBytes != sharedB {
		t.Fatalf("store DedupedBytes = %d, want %d", st.DedupedBytes, sharedB)
	}
	if err := store.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestHostOversizedAdapterRejected gives one catalogued adapter more
// bytes than the whole host tier (it still fits the GPU pool). No
// fetch can ever host it, so its requests are rejected, charged to
// their tenant, instead of stalling the engine into a capacity
// deadlock, and every other adapter's requests complete.
func TestHostOversizedAdapterRejected(t *testing.T) {
	model := lmm.QwenVL7B()
	small := lora.MakeUniformAdapters(model, 2, model.DefaultRank)
	big := &lora.Adapter{ID: 2, Name: "big", Rank: 4 * model.DefaultRank, Model: model}
	adapters := append(small, big)
	ab := small[0].Bytes()
	store := registry.NewStore(registry.Config{
		HostCapacity:    3 * ab,
		RemoteLatency:   5 * time.Millisecond,
		RemoteBandwidth: 2e9,
	}, registry.CatalogFromAdapters(adapters, nil))
	if big.Bytes() <= 3*ab {
		t.Fatalf("fixture: the big adapter (%d B) must exceed the host tier (%d B)", big.Bytes(), 3*ab)
	}
	opts, err := SystemOptions(SystemVaLoRA, simgpu.A100(), model)
	if err != nil {
		t.Fatal(err)
	}
	opts.Registry = lora.NewRegistry(adapters...)
	opts.AdapterPoolBytes = 8 * ab
	opts.Store = store
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	var trace workload.Trace
	bigReqs := 0
	for i := range 30 {
		r := &sched.Request{ID: int64(i + 1), AdapterID: i % 3, Tenant: "t",
			InputTokens: 64, OutputTokens: 8, Arrival: time.Duration(i) * 3 * time.Millisecond}
		if r.AdapterID == big.ID {
			bigReqs++
		}
		trace = append(trace, r)
	}
	rep, err := srv.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed+rep.Rejected != len(trace) {
		t.Fatalf("completed %d + rejected %d != %d submitted", rep.Completed, rep.Rejected, len(trace))
	}
	if rep.Rejected != bigReqs || rep.Completed != len(trace)-bigReqs {
		t.Fatalf("rejected %d, completed %d: want the %d big-adapter requests rejected and the rest completed",
			rep.Rejected, rep.Completed, bigReqs)
	}
	if ts := srv.tenants["t"]; ts == nil || ts.rejected != bigReqs || ts.completed != len(trace)-bigReqs {
		t.Fatalf("tenant accounting %+v: want %d rejected", ts, bigReqs)
	}
	if err := store.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFetchStallWakesAtNextArrival pins the stall stage's wake bound.
// Request A's adapter rides a remote fetch far longer than the
// fetch-wait quantum, so the instance stalls. Request B, on an
// uncatalogued (always host-resident) adapter, arrives at 2ms: the
// stalled instance must wake at that arrival and schedule B at once,
// not sleep to the end of the quantum (5ms) first.
func TestFetchStallWakesAtNextArrival(t *testing.T) {
	model := lmm.QwenVL7B()
	adapters := lora.MakeUniformAdapters(model, 1, model.DefaultRank)
	store := registry.NewStore(registry.Config{
		HostCapacity:    4 * adapters[0].Bytes(),
		RemoteLatency:   50 * time.Millisecond,
		RemoteBandwidth: 2e9,
	}, registry.CatalogFromAdapters(adapters, nil))
	opts, err := SystemOptions(SystemVaLoRA, simgpu.A100(), model)
	if err != nil {
		t.Fatal(err)
	}
	opts.Registry = lora.NewRegistry(adapters...)
	opts.Store = store
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	a := &sched.Request{ID: 1, AdapterID: adapters[0].ID, InputTokens: 64, OutputTokens: 4}
	b := &sched.Request{ID: 2, AdapterID: 99, InputTokens: 64, OutputTokens: 4, Arrival: 2 * time.Millisecond}
	rep, err := srv.Run(workload.Trace{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 2 {
		t.Fatalf("completed %d of 2", rep.Completed)
	}
	if b.FirstSchedule != b.Arrival {
		t.Fatalf("B first scheduled at %v, want its arrival %v: the fetch stall overslept the next arrival", b.FirstSchedule, b.Arrival)
	}
	if a.FirstSchedule < 50*time.Millisecond {
		t.Fatalf("A first scheduled at %v, before its remote fetch could land", a.FirstSchedule)
	}
}
