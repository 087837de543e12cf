package analysis_test

// The runtime half of the hotpath contract: every function annotated
// //valora:hotpath must run allocation-free at steady state. The
// static analyzer cannot see that a cold branch never executes, or
// that an append lands in retained capacity, so each annotated
// function also gets an allocation gate here driving its steady path.
// A new allocation in any of them fails this test before it ever shows
// up in a profile.

import (
	"runtime"
	"testing"
	"time"

	"valora/internal/atmm"
	"valora/internal/lmm"
	"valora/internal/lora"
	"valora/internal/metrics"
	"valora/internal/registry"
	"valora/internal/sched"
	"valora/internal/serving"
	"valora/internal/sim"
	"valora/internal/simgpu"
)

// gateCalls is the steady-state window each gate measures.
const gateCalls = 200

// gate counts every malloc over one run of gateCalls calls of fn,
// after an equal warm-up run (the first calls may grow scratch
// buffers). AllocsPerRun(gateCalls, fn) would divide the total by
// gateCalls in integer arithmetic, so a path that allocates once every
// few calls would read 0; one run of the whole window reports it.
func gate(t *testing.T, name string, fn func()) {
	t.Helper()
	if raceEnabled {
		t.Skipf("%s: the race runtime's instrumentation allocates, so allocation counts only hold without -race", name)
	}
	window := func() {
		for range gateCalls {
			fn()
		}
	}
	if got := testing.AllocsPerRun(1, window); got != 0 {
		t.Errorf("%s: %.0f allocs over %d steady-state calls, want 0", name, got, gateCalls)
	}
}

// Pool.Require with every adapter resident is the per-iteration case:
// pins, touches, unpins — no swap-ins, no capacity error.
func TestRequireSteadyStateZeroAlloc(t *testing.T) {
	model := lmm.QwenVL7B()
	pool := lora.NewPool(simgpu.A100(), 64*model.AdapterBytes(model.DefaultRank), true, true)
	adapters := lora.MakeUniformAdapters(model, 8, model.DefaultRank)
	if _, err := pool.Require(adapters, 0); err != nil {
		t.Fatal(err)
	}
	gate(t, "Pool.Require (resident batch)", func() {
		if _, err := pool.Require(adapters, 0); err != nil {
			t.Fatal(err)
		}
	})
}

// Pool.Require under churn: a rotating working set of 12 adapters
// through an 8-adapter pool makes every call a swap-in that evicts the
// least recently used entry. Evicted entries are reused, so once the
// pool has filled a swap-in allocates nothing.
func TestRequireChurnZeroAlloc(t *testing.T) {
	model := lmm.QwenVL7B()
	pool := lora.NewPool(simgpu.A100(), 8*model.AdapterBytes(model.DefaultRank), true, true)
	adapters := lora.MakeUniformAdapters(model, 12, model.DefaultRank)
	next := 0
	gate(t, "Pool.Require (swap-in churn)", func() {
		i := next % len(adapters)
		next++
		if _, err := pool.Require(adapters[i:i+1], 0); err != nil {
			t.Fatal(err)
		}
	})
	if swapIns, _, _, _ := pool.SwapStats(); swapIns != next {
		t.Errorf("%d swap-ins over %d calls: the working set did not churn", swapIns, next)
	}
}

// lora.ExtraCost with an instance's CostScratch: a memo hit, a miss
// (ATMM's plan-indexed LayerTime and the compiled kernel cost), and a
// batch past the memo's group cap, which bypasses it.
func TestLoRACostZeroAlloc(t *testing.T) {
	model := lmm.QwenVL7B()
	op, err := atmm.NewATMM(simgpu.A100(), model.Dim, 8192)
	if err != nil {
		t.Fatal(err)
	}
	var cs lora.CostScratch
	cost := func(groups []lora.TokenGroup) {
		if d, err := lora.ExtraCost(op, model, lora.ModeMixture, 0, groups, &cs); err != nil || d <= 0 {
			t.Fatal("ExtraCost failed", d, err)
		}
	}
	hit := []lora.TokenGroup{{AdapterID: 0, Rank: 64, Tokens: 40}, {AdapterID: 1, Rank: 64, Tokens: 3}}
	gate(t, "ExtraCost (memo hit)", func() { cost(hit) })
	miss := []lora.TokenGroup{{AdapterID: 1, Rank: 64, Tokens: 1}}
	gate(t, "ExtraCost (memo miss)", func() {
		miss[0].Tokens++ // a key never seen before
		cost(miss)
	})
	wide := make([]lora.TokenGroup, 6)
	for i := range wide {
		wide[i] = lora.TokenGroup{AdapterID: i + 1, Rank: 64, Tokens: 5 + i}
	}
	gate(t, "ExtraCost (over the memo's group cap)", func() { cost(wide) })
}

// KVCache at steady state: a sequence's Allocate, per-token Extend,
// Tokens and Release reuse released records and block capacity.
func TestKVCacheSteadyStateZeroAlloc(t *testing.T) {
	model := lmm.QwenVL7B()
	kv := lmm.NewKVCache(model, 256*model.KVBytesPerToken()*lmm.BlockSize)
	var hs [8]lmm.SeqHandle
	gate(t, "KVCache.Allocate/Extend/Tokens/Release", func() {
		for i := range hs {
			h, err := kv.Allocate(40+7*i, 0)
			if err != nil {
				t.Fatal(err)
			}
			hs[i] = h
		}
		for step := 0; step < 20; step++ {
			for _, h := range hs {
				if err := kv.Extend(h); err != nil || kv.Tokens(h) == 0 {
					t.Fatal("extend failed", err)
				}
			}
		}
		for _, h := range hs {
			kv.Release(h)
		}
	})
}

// Stamping an already-interned adapter's slot at ingest is a lookup.
func TestAdapterSlotStampZeroAlloc(t *testing.T) {
	reqs := make([]*sched.Request, 64)
	for i := range reqs {
		reqs[i] = &sched.Request{ID: int64(i), AdapterID: i % 16}
	}
	var slots sched.AdapterSlots
	gate(t, "AdapterSlots.Stamp", func() {
		slots.Stamp(reqs...)
	})
}

// ArrivalQueue push/pop cycles reuse the heap's backing array once it
// has grown to the working-set size.
func TestArrivalQueueZeroAlloc(t *testing.T) {
	var q sched.ArrivalQueue
	reqs := make([]*sched.Request, 64)
	for i := range reqs {
		reqs[i] = &sched.Request{ID: int64(i), Arrival: time.Duration(i)}
	}
	for _, r := range reqs { // grow the heap once
		q.Push(r)
	}
	for q.PopDue(time.Hour) != nil {
	}
	gate(t, "ArrivalQueue.Push/PopDue", func() {
		for _, r := range reqs {
			q.Push(r)
		}
		for q.PopDue(time.Hour) != nil {
		}
	})
}

// gateProc is a minimal sim.Process whose next-event time the test
// steers to force heap movement.
type gateProc struct{ at time.Duration }

func (p *gateProc) NextEventAt() time.Duration { return p.at }
func (p *gateProc) Step() (bool, error)        { return true, nil }

// Timeline.Refresh is the decrease-key operation: steering one
// process's key across the heap (to the front, to the back, to idle
// and back) exercises hup, hdown, hremove and hpush without ever
// growing the heap arrays.
func TestTimelineRefreshZeroAlloc(t *testing.T) {
	tl := &sim.Timeline{}
	procs := make([]*gateProc, 8)
	idx := make([]int, 8)
	for i := range procs {
		procs[i] = &gateProc{at: time.Duration(i+1) * time.Millisecond}
		idx[i] = tl.Add(procs[i])
	}
	target := procs[3]
	gate(t, "Timeline.Refresh", func() {
		for _, at := range []time.Duration{time.Nanosecond, time.Hour, sim.Never, 4 * time.Millisecond} {
			target.at = at
			tl.Refresh(idx[3])
		}
	})
}

// VaLoRAPolicy.Decide at steady state: scratch buffers are resliced,
// cohort counts are epoch-versioned in a slice indexed by the adapter
// slots ingest stamps on each request.
func TestDecideZeroAlloc(t *testing.T) {
	p := sched.NewVaLoRAPolicy()
	active := make([]*sched.Request, 16)
	for i := range active {
		active[i] = &sched.Request{ID: int64(i), AdapterID: i % 4, InputTokens: 64}
	}
	var slots sched.AdapterSlots
	slots.Stamp(active...)
	it := sched.Iteration{
		Now:    time.Second,
		Active: active,
		State:  lora.State{Mode: lora.ModeMerged, Merged: 0},
		MaxBS:  8,
	}
	gate(t, "VaLoRAPolicy.Decide", func() {
		it.Now += time.Millisecond
		p.Decide(it)
	})
}

// TenantQueue.Pop at steady state: per-tenant heaps shrink and regrow
// inside retained capacity.
func TestTenantPopZeroAlloc(t *testing.T) {
	tq := sched.NewTenantQueue(true,
		sched.TenantConfig{Name: "a", Weight: 2},
		sched.TenantConfig{Name: "b", Weight: 1},
	)
	reqs := make([]*sched.Request, 32)
	for i := range reqs {
		reqs[i] = &sched.Request{ID: int64(i), Arrival: time.Duration(i), Tenant: []string{"a", "b"}[i%2]}
	}
	push := func() {
		for _, r := range reqs {
			if !tq.Push(r) {
				t.Fatal("push shed a request")
			}
		}
	}
	push()
	for tq.Pop() != nil {
	}
	gate(t, "TenantQueue.Pop", func() {
		push()
		for tq.Pop() != nil {
		}
	})
}

// Prefetcher.Observe on an adapter that is already resident (the
// per-arrival common case) — also gated in the registry package; this
// copy keeps the whole hotpath contract auditable in one file.
func TestObserveZeroAlloc(t *testing.T) {
	model := lmm.QwenVL7B()
	adapters := lora.MakeUniformAdapters(model, 4, model.DefaultRank)
	cat := registry.CatalogFromAdapters(adapters, nil)
	ab := adapters[0].Bytes()
	store := registry.NewStore(registry.Config{
		HostCapacity:    16 * ab,
		RemoteLatency:   time.Millisecond,
		RemoteBandwidth: 1e9,
	}, cat)
	pf := registry.NewPrefetcher(store, 2)
	pf.Observe(0, 0)
	for store.NextFetchDone() > 0 {
		store.Advance(store.NextFetchDone())
	}
	now := time.Second
	gate(t, "Prefetcher.Observe (resident)", func() {
		now += time.Microsecond
		pf.Observe(0, now)
	})
}

// Chunk-mode Store.Demand on a resident adapter is the per-iteration
// resolve/refcount hot path: key lookup, all-chunks-resident scan, LRU
// touch of the adapter and each of its chunks — no fetch machinery.
func TestChunkDemandResidentZeroAlloc(t *testing.T) {
	model := lmm.QwenVL7B()
	adapters := lora.MakeUniformAdapters(model, 4, model.DefaultRank)
	ab := adapters[0].Bytes()
	cat := registry.CatalogFromFamilies(adapters, nil, func(id int) (string, int64) {
		return "fam", ab / 2
	})
	store := registry.NewStore(registry.Config{
		HostCapacity:    16 * ab,
		RemoteLatency:   time.Millisecond,
		RemoteBandwidth: 1e9,
		ChunkSize:       ab / 16,
	}, cat)
	// Materialize adapters 0 and 1, then drain every in-flight chunk.
	for id := 0; id < 2; id++ {
		if st, _, _ := store.Demand(id, 0); st == registry.StatusDenied {
			t.Fatalf("adapter %d: fetch denied", id)
		}
	}
	for store.NextFetchDone() >= 0 {
		store.Advance(store.NextFetchDone())
	}
	now := time.Second
	gate(t, "Store.Demand (chunked, resident)", func() {
		now += time.Microsecond
		for id := 0; id < 2; id++ {
			if st, _, _ := store.Demand(id, now); st != registry.StatusHit {
				t.Fatalf("adapter %d: status %v, want hit", id, st)
			}
		}
		if !store.HostResident(1, now) {
			t.Fatal("adapter 1 not resident")
		}
	})
}

// Stream.Add once its bucket runs cover the value range: every sample
// lands in an existing bucket or the zero count. Only a sample outside
// the observed range grows a run.
func TestStreamAddZeroAlloc(t *testing.T) {
	s := metrics.NewStream()
	vals := []float64{0, 0.05, -3, 1, 12.5, 250, 4e3, 9e4, -0.2, 7e5}
	gate(t, "Stream.Add (warm range)", func() {
		for _, v := range vals {
			s.Add(v)
		}
	})
}

// Server.Step at steady state, end to end through the public API: a
// VaLoRA instance holds a constant ~1,000-deep waiting backlog (each
// Step's completions are topped back up by Submits stamped at Now), so
// ingest, admission past the backlog, Decide, residency, mode switches,
// costing and completion all run every iteration. The requests are
// pre-built and recycled once finished, so the only allocations counted
// are the engine's own. AllocsPerRun cannot hold a backlog steady
// across runs, so the gate reads the runtime's malloc counter over a
// long window instead.
func TestStepSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime's instrumentation allocates, so allocation counts only hold without -race")
	}
	const (
		backlog = 1000
		warm    = 5000
		window  = 20000
	)
	model := lmm.QwenVL7B()
	srv, err := serving.NewSystem(serving.SystemVaLoRA, simgpu.A100(), model)
	if err != nil {
		t.Fatal(err)
	}
	// The ring is far deeper than the in-flight set, so a request is
	// long finished by the time its slot comes round again.
	reqs := make([]sched.Request, 8*backlog)
	next := 0
	var id int64
	topUp := func() {
		for srv.InFlight() < backlog {
			r := &reqs[next%len(reqs)]
			if id >= int64(len(reqs)) && r.Phase != sched.PhaseDone {
				t.Fatalf("request %d still in flight when its ring slot came round", r.ID)
			}
			next++
			id++
			// Three in four requests go to a dominant adapter that
			// rotates every 2,000 submissions, so the policy merges,
			// mixes and unmerges, and switches between merged adapters.
			adapter := int(id/2000) % 8
			if id%4 == 0 {
				adapter = int(id % 8)
			}
			*r = sched.Request{
				ID:           id,
				AdapterID:    adapter,
				InputTokens:  48 + int(id%5)*16,
				OutputTokens: 4 + int(id%7),
				Arrival:      srv.Now(),
			}
			srv.Submit(r)
		}
	}
	step := func(n int) {
		for range n {
			topUp()
			if ok, err := srv.Step(); err != nil || !ok {
				t.Fatalf("step: progressed %v, err %v", ok, err)
			}
		}
	}
	step(warm)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	step(window)
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got != 0 {
		t.Errorf("Server.Step: %d mallocs (%d bytes) over %d steady-state steps with a %d-deep backlog, want 0",
			got, after.TotalAlloc-before.TotalAlloc, window, backlog)
	}
	if done := srv.Report().Completed; done < window {
		t.Errorf("only %d requests completed over %d steps: the backlog is not being served", done, warm+window)
	}
}
