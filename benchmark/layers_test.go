package main

// Microbenchmarks of the public entry point of every //valora:hotpath
// function, fed by the workloads' own generators at the benchmark's
// default seed, so a speed-up in one layer can be named and measured
// apart from the end-to-end runs:
//
//	go test -run '^$' -bench Layer -benchmem

import (
	"testing"
	"time"

	"valora/internal/lmm"
	"valora/internal/lora"
	"valora/internal/metrics"
	"valora/internal/registry"
	"valora/internal/sched"
	"valora/internal/sim"
	"valora/internal/simgpu"
	"valora/internal/trace"
	"valora/internal/workload"
)

const layerSeed = 42

// stressRequests is the head of stress-replay's trace.
func stressRequests(n int) workload.Trace {
	cfg := workload.DefaultStress(n, layerSeed)
	cfg.Rate = stressRate
	return workload.GenStress(cfg)
}

// forever is a PopDue horizon every arrival is due by.
const forever = time.Duration(1<<63 - 1)

// ArrivalQueue.Push and PopDue on a 64-deep queue of stress arrivals.
func BenchmarkLayerArrivalQueue(b *testing.B) {
	reqs := stressRequests(4096)
	var q sched.ArrivalQueue
	const depth = 64
	for _, r := range reqs[:depth] {
		q.Push(r)
	}
	b.ReportAllocs()
	for i := depth; b.Loop(); i++ {
		q.Push(reqs[i%len(reqs)])
		if q.PopDue(forever) == nil {
			b.Fatal("queue ran dry")
		}
	}
}

// TenantQueue.Ref, Push and Pop on tenants-preempt's two classes.
func BenchmarkLayerTenantQueue(b *testing.B) {
	reqs := workload.GenMultiTenant(workload.DefaultPreemptMix(60*time.Second, 1, layerSeed))
	tq := sched.NewTenantQueue(true, workload.PreemptTenantClasses()...)
	const depth = 64
	for _, r := range reqs[:depth] {
		tq.Ref(r.Tenant).Push(r)
	}
	b.ReportAllocs()
	for i := depth; b.Loop(); i++ {
		r := reqs[i%len(reqs)]
		if !tq.Ref(r.Tenant).Push(r) {
			b.Fatal("push shed a request")
		}
		if tq.Pop() == nil {
			b.Fatal("queue ran dry")
		}
	}
}

// VaLoRAPolicy.Decide over a sliding 48-request active set.
func BenchmarkLayerDecide(b *testing.B) {
	reqs := stressRequests(4096)
	const active = 48
	p := sched.NewVaLoRAPolicy()
	it := sched.Iteration{
		Now:   reqs[len(reqs)-1].Arrival,
		State: lora.State{Mode: lora.ModeMerged, Merged: reqs[0].AdapterID},
		MaxBS: 32,
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		start := (i * active) % (len(reqs) - active)
		it.Active = reqs[start : start+active]
		it.Now += time.Millisecond
		p.Decide(it)
	}
}

// Pool.Require (and through it touch and evict) for the distinct
// adapters of each 8-request window, on a pool a quarter the size of
// stress-replay's 64 adapters.
func BenchmarkLayerPoolRequire(b *testing.B) {
	model := lmm.QwenVL7B()
	adapters := lora.MakeUniformAdapters(model, 64, model.DefaultRank)
	pool := lora.NewPool(simgpu.A100(), 16*adapters[0].Bytes(), true, true)
	reqs := stressRequests(4096)
	var batches [][]*lora.Adapter
	for i := 0; i+8 <= len(reqs); i += 8 {
		seen := map[int]bool{}
		var batch []*lora.Adapter
		for _, r := range reqs[i : i+8] {
			if !seen[r.AdapterID] {
				seen[r.AdapterID] = true
				batch = append(batch, adapters[r.AdapterID])
			}
		}
		batches = append(batches, batch)
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if _, err := pool.Require(batches[i%len(batches)], 0); err != nil {
			b.Fatal(err)
		}
	}
}

type layerProc struct{ at time.Duration }

func (p *layerProc) NextEventAt() time.Duration { return p.at }
func (p *layerProc) Step() (bool, error)        { return true, nil }

// Timeline.Refresh (and through it hup and hdown) as 4 instances'
// next events follow stress arrivals.
func BenchmarkLayerTimelineRefresh(b *testing.B) {
	reqs := stressRequests(4096)
	tl := &sim.Timeline{}
	procs := make([]*layerProc, 4)
	for i := range procs {
		procs[i] = &layerProc{at: reqs[i].Arrival}
		tl.Add(procs[i])
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		k := i % len(procs)
		procs[k].at = reqs[i%len(reqs)].Arrival
		tl.Refresh(k)
	}
}

// fleetLoop replays fleet-registry's arrivals against its chunked
// store, one per call of op, with the store advanced to each arrival.
// Laps of the trace continue in time so the clock never goes back.
func fleetLoop(b *testing.B, op func(store *registry.Store, pf *registry.Prefetcher, adapter int, now time.Duration)) {
	const span = 600 * time.Second
	fcfg, _, store := newFleet(layerSeed, span)
	reqs := workload.GenFleet(fcfg)
	pf := registry.NewPrefetcher(store, 4)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		r := reqs[i%len(reqs)]
		now := time.Duration(i/len(reqs))*span + r.Arrival
		store.Advance(now)
		op(store, pf, r.AdapterID, now)
	}
}

// Prefetcher.Observe on fleet-registry's arrivals.
func BenchmarkLayerPrefetcherObserve(b *testing.B) {
	fleetLoop(b, func(_ *registry.Store, pf *registry.Prefetcher, adapter int, now time.Duration) {
		pf.Observe(adapter, now)
	})
}

// Chunk-mode Store.Demand (and through it the chunk residency and
// refcount helpers) on fleet-registry's arrivals.
func BenchmarkLayerStoreDemand(b *testing.B) {
	fleetLoop(b, func(store *registry.Store, _ *registry.Prefetcher, adapter int, now time.Duration) {
		store.Demand(adapter, now)
	})
}

// Recorder.Append of stress requests' trace rows, reset every 4096.
func BenchmarkLayerRecorderAppend(b *testing.B) {
	reqs := stressRequests(4096)
	rows := make([]trace.Record, len(reqs))
	for i, r := range reqs {
		rows[i] = trace.Record{ID: r.ID, Adapter: r.AdapterID, Arrival: r.Arrival,
			InputTokens: r.InputTokens, OutputTokens: r.OutputTokens}
	}
	rec := trace.NewRecorder()
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if i%len(rows) == 0 {
			rec.Reset()
		}
		rec.Append(rows[i%len(rows)])
	}
}

// gapsMS are stress-replay's inter-arrival gaps in ms: latency-like
// values spread over the histogram buckets.
func gapsMS(n int) []float64 {
	reqs := stressRequests(n + 1)
	out := make([]float64, n)
	for i := range out {
		out[i] = ms(reqs[i+1].Arrival - reqs[i].Arrival)
	}
	return out
}

var system = metrics.Label{Name: "system", Value: "VaLoRA"}

// Counter.Inc and Counter.Add.
func BenchmarkLayerPromCounter(b *testing.B) {
	c := metrics.NewProm().Counter("valora_tokens_in_total", "Prompt tokens.", system)
	reqs := stressRequests(4096)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		c.Inc()
		c.Add(float64(reqs[i%len(reqs)].InputTokens))
	}
}

// Gauge.Set.
func BenchmarkLayerPromGauge(b *testing.B) {
	g := metrics.NewProm().Gauge("valora_virtual_time_ms", "Virtual clock.", system)
	gaps := gapsMS(4096)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		g.Set(gaps[i%len(gaps)])
	}
}

// PromHistogram.Observe over the default latency buckets.
func BenchmarkLayerPromHistogram(b *testing.B) {
	h := metrics.NewProm().Histogram("valora_ttft_ms", "TTFT.", metrics.DefaultLatencyBuckets(), system)
	gaps := gapsMS(4096)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		h.Observe(gaps[i%len(gaps)])
	}
}

// Stream.Add of 1,000 samples into a fresh stream bounded like
// stress-replay's (LatencySampleCap 1<<20): the cost of a short run,
// first-Add reservoir preallocation included.
func BenchmarkLayerStreamAddFresh(b *testing.B) {
	gaps := gapsMS(1000)
	b.ReportAllocs()
	for b.Loop() {
		s := metrics.NewBoundedStream(1 << 20)
		for _, v := range gaps {
			s.Add(v)
		}
	}
}
