package bench

import (
	"fmt"
	"time"

	"valora/internal/calib"
	"valora/internal/lmm"
	"valora/internal/lora"
	"valora/internal/registry"
	"valora/internal/sched"
	"valora/internal/serving"
	"valora/internal/trace"
	"valora/internal/workload"
)

// fleetScale groups the size knobs of the fleet-cold-start experiment
// so quick mode shrinks coherently. The host tier is sized to the
// small universe, so the fleet rows run it ~(perFamily/smallPer)×
// smaller than their adapter universe — the regime where whole-blob
// caching thrashes and chunk dedup must carry the working set.
type fleetScale struct {
	families  int
	perFamily int // fleet-universe members per family
	smallPer  int // small-universe members per family (baseline row)
	sweepRate float64
	duration  time.Duration
	fleet     int // serving instances
	poolSlots int // per-GPU adapter pool in adapters
}

func (s *Suite) fleetScale() fleetScale {
	if s.Quick {
		return fleetScale{families: 8, perFamily: 15, smallPer: 3,
			sweepRate: 0.8, duration: 20 * time.Second, fleet: 2, poolSlots: 8}
	}
	return fleetScale{families: 50, perFamily: 40, smallPer: 4,
		sweepRate: 1.5, duration: s.traceDuration(), fleet: 3, poolSlots: 8}
}

// fleetSharedNum/Den set the family-shared weight prefix to 5/8 of
// each adapter's bytes (family-distilled adapters share most of their
// low-rank update; only the site-specific tail differs), and
// fleetChunkDivisor digests adapters in 1/32-blob chunks — fine
// enough that the shared prefix dedups cleanly, coarse enough that
// per-chunk bookkeeping stays cheap.
const (
	fleetSharedNum    = 5
	fleetSharedDen    = 8
	fleetChunkDivisor = 32
)

// FleetColdStart is the chunk-level adapter-distribution experiment: a
// fleet of per-site adapters distilled from ~50 family parents (so
// siblings share a weight prefix), exercised by inspection sweeps that
// walk one family's members back to back, pulled through a host tier
// sized ~10× smaller than the adapter universe. Four rows replay the
// same workload shape:
//
//   - whole-blob/small: the pre-fleet baseline — the same host tier
//     and one chunk per adapter, with a 10× smaller adapter universe,
//     so it fits comfortably.
//   - whole-blob/fleet: the full universe with one chunk per adapter
//     (ChunkSize 0); the shared prefix is not a whole chunk, so every
//     miss re-transfers the family prefix its siblings already hold.
//   - chunked/fleet: 1/32-adapter chunks — siblings dedup
//     the shared prefix, eviction frees only unreferenced chunks, and
//     family-warm prefetch pins each hot family's shared prefix.
//   - chunked+replicas/fleet: the same plus 3 replica links with
//     per-tenant fair queuing; calib.FitFetchCost fits the measured
//     fetch-cost model to the store's captured fetch rows.
//
// The headline: chunking cuts remote fetch bytes ≥2× at equal host
// bytes, and holds cold-start TTFT p99 roughly flat at 10× the
// adapter scale of the whole-blob baseline. One record per row is
// appended to the BENCH_serving.json trajectory.
func (s *Suite) FleetColdStart() (*Table, error) {
	model := lmm.QwenVL7B()
	sc := s.fleetScale()
	ab := lora.MakeUniformAdapters(model, 1, model.DefaultRank)[0].Bytes()
	sharedB := ab * fleetSharedNum / fleetSharedDen
	chunkSize := ab / fleetChunkDivisor
	hostBytes := int64(sc.families*sc.smallPer) * ab
	tenants := []string{"inspect-a", "inspect-b"}

	type mode struct {
		name       string
		perFamily  int
		chunked    bool
		replicas   int
		familyWarm int
	}
	modes := []mode{
		{name: "whole-blob/small", perFamily: sc.smallPer},
		{name: "whole-blob/fleet", perFamily: sc.perFamily},
		{name: "chunked/fleet", perFamily: sc.perFamily, chunked: true, replicas: 1, familyWarm: 2},
		{name: "chunked+replicas/fleet", perFamily: sc.perFamily, chunked: true, replicas: 3, familyWarm: 2},
	}

	t := &Table{
		ID: "fleet-cold-start",
		Title: fmt.Sprintf("Chunk-level adapter distribution at fleet scale (%d families × %d adapters, host tier %d-adapter equivalent)",
			sc.families, sc.perFamily, sc.families*sc.smallPer),
		Paper: "beyond-paper experiment: the paper registers whole adapters; a fleet of family-derived adapters shares weight prefixes that chunk-level content addressing transfers and caches once",
		Columns: []string{"mode", "adapters", "cold ttft p99 (ms)", "cold ttft p50 (ms)",
			"host hit", "fetched (GB)", "deduped (GB)", "dedup hits", "fetches", "completed"},
	}

	fetchBytes := make(map[string]int64, len(modes))
	coldP99 := make(map[string]float64, len(modes))
	var costNote string
	for _, m := range modes {
		fcfg := workload.DefaultFleet(sc.families, m.perFamily, sc.sweepRate, sc.duration, s.Seed)
		fcfg.Tenants = tenants
		// Sweep length is pinned to the small universe's family size so
		// every row replays identically-shaped bursts — the rows differ
		// only in universe size and distribution mechanism.
		fcfg.SweepLen = sc.smallPer
		universe := fcfg.AdapterCount()
		adapters := lora.MakeUniformAdapters(model, universe, model.DefaultRank)
		familyOf := func(id int) (string, int64) { return fcfg.FamilyOf(id), sharedB }
		cat := registry.CatalogFromFamilies(adapters, fcfg.TenantOf, familyOf)

		rcfg := registry.Config{
			HostCapacity:    hostBytes,
			RemoteLatency:   5 * time.Millisecond,
			RemoteBandwidth: 2.5e9,
		}
		if m.chunked {
			rcfg.ChunkSize = chunkSize
			rcfg.Replicas = m.replicas
			if m.replicas > 1 {
				rcfg.LinkWeights = map[string]float64{"inspect-a": 2, "inspect-b": 1}
			}
		}
		store := registry.NewStore(rcfg, cat)
		var rec *trace.FetchRecorder
		if m.chunked {
			rec = trace.NewFetchRecorder()
			store.SetFetchObserver(rec.Append)
		}

		build := func(int) (serving.Options, error) {
			opts, err := serving.SystemOptions(serving.SystemVaLoRA, s.GPU, model)
			if err != nil {
				return serving.Options{}, err
			}
			opts.Registry = lora.NewRegistry(adapters...)
			opts.AdapterPoolBytes = int64(sc.poolSlots) * ab
			opts.Store = store
			return opts, nil
		}
		cfg := serving.SchedulingConfig{
			Tenants: []sched.TenantConfig{
				{Name: "inspect-a", Weight: 2}, {Name: "inspect-b", Weight: 1},
			},
			FairShare:         true,
			HighWater:         4,
			Store:             store,
			PrefetchLookahead: 4,
			FamilyWarm:        m.familyWarm,
		}
		cl, err := serving.NewManagedCluster(sc.fleet, serving.NewLeastLoaded(), cfg, build)
		if err != nil {
			return nil, err
		}
		tr := workload.GenFleet(fcfg)
		workload.MarkColdCandidates(tr, coldGap)
		start := time.Now()
		rep, err := cl.Run(tr)
		if err != nil {
			return nil, err
		}
		wall := time.Since(start)
		if rep.Completed+rep.Rejected+rep.Shed != len(tr) {
			return nil, fmt.Errorf("bench: fleet-cold-start %s lost requests: %d+%d+%d of %d",
				m.name, rep.Completed, rep.Rejected, rep.Shed, len(tr))
		}
		allFetched := rep.FetchBytes + rep.PrefetchBytes
		fetchBytes[m.name] = allFetched
		coldP99[m.name] = rep.ColdTTFT.P99

		t.AddRow(m.name, fmt.Sprintf("%d", universe), f2(rep.ColdTTFT.P99), f2(rep.ColdTTFT.P50),
			pct(rep.HostHitRate()), gb(allFetched), gb(rep.DedupedBytes),
			fmt.Sprintf("%d", rep.DedupHits),
			fmt.Sprintf("%d", rep.RemoteFetches+rep.PrefetchFetches),
			fmt.Sprintf("%d", rep.Completed))

		srec := s.newRecord("fleet-cold-start", rep, len(tr), rep.PeakInstances, serving.NewLeastLoaded().Name(), wall)
		srec.Mode = m.name
		srec.Shed = rep.Shed
		srec.ColdStarts = rep.ColdStarts
		srec.ColdTTFTP50MS = rep.ColdTTFT.P50
		srec.ColdTTFTP99MS = rep.ColdTTFT.P99
		srec.TTFTP99MS = rep.TTFT.P99
		srec.HostHitRate = rep.HostHitRate()
		srec.GPUTierHitRate = rep.GPUTierHitRate()
		srec.RemoteFetches = rep.RemoteFetches
		srec.PrefetchFetches = rep.PrefetchFetches
		srec.FetchBytes = allFetched
		srec.SwapBytes = rep.SwapBytes
		srec.ChunkFetches = rep.ChunkFetches
		srec.DedupHits = rep.DedupHits
		srec.DedupedBytes = rep.DedupedBytes
		srec.ChunkEvictions = rep.ChunkEvictions
		if rec != nil && rec.Len() >= 2 {
			if fc, err := calib.FitFetchCost(rec.Rows()); err == nil {
				srec.FetchCostBaseMS = fc.BaseMS
				srec.FetchCostPerMBMS = fc.PerMBMS
				if m.replicas > 1 {
					costNote = fmt.Sprintf("fetch-cost fit (%d fetches): base %.2f ms + %.3f ms/MB.", fc.Samples, fc.BaseMS, fc.PerMBMS)
				}
			}
		}
		if err := s.appendStressRecord(srec); err != nil {
			return nil, err
		}
	}

	reduction := 0.0
	if fb := fetchBytes["chunked+replicas/fleet"]; fb > 0 {
		reduction = float64(fetchBytes["whole-blob/fleet"]) / float64(fb)
	}
	t.Notes = fmt.Sprintf("at equal host bytes, chunk dedup cuts remote fetch traffic %.1f× vs whole-blob on the same fleet "+
		"(%s → %s GB) and holds cold-start TTFT p99 near the 10×-smaller whole-blob baseline "+
		"(%.1f ms small universe → %.1f ms chunked fleet vs %.1f ms whole-blob fleet). %s Appended one record per row to %s.",
		reduction, gb(fetchBytes["whole-blob/fleet"]), gb(fetchBytes["chunked+replicas/fleet"]),
		coldP99["whole-blob/small"], coldP99["chunked+replicas/fleet"], coldP99["whole-blob/fleet"],
		costNote, BenchServingFile)
	return t, nil
}
