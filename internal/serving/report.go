// Package serving implements the VaLoRA inference runtime in
// simulation: an iteration-level (continuous-batching) serving loop in
// virtual time over the lmm/lora/sched substrates, multi-GPU clusters,
// and the metrics the paper reports (average token latency,
// throughput, time-to-first-token).
package serving

import (
	"fmt"
	"strings"
	"time"

	"valora/internal/metrics"
)

// Report summarizes one serving run.
type Report struct {
	System string
	Model  string

	Requests  int
	Completed int
	// Rejected counts requests never servable on their instance: a
	// prompt larger than the whole KV cache, or an adapter larger than
	// the whole GPU adapter pool or the whole host tier.
	Rejected int
	// Shed counts requests dropped by the cluster admission stage
	// before reaching any instance: per-tenant queue caps, hopeless
	// deadlines at arrival, and deadlines that expired while queued.
	Shed    int
	SimTime time.Duration

	// AvgTokenLatency is the paper's headline metric (§6.1): the sum
	// of request end-to-end latencies divided by the total number of
	// tokens (input + output), in milliseconds per token.
	AvgTokenLatency float64
	// E2E summarizes request end-to-end latencies (ms).
	E2E metrics.Summary
	// TTFT summarizes time-to-first-token (ms).
	TTFT metrics.Summary
	// Throughput is completed requests per simulated second.
	Throughput float64

	// Runtime accounting.
	Iterations     int
	ModeIterations map[string]int
	Switches       int
	SwitchTime     time.Duration
	LoRATime       time.Duration // time spent in LoRA extra computation
	BaseTime       time.Duration // time spent in base-model computation
	SwapIns        int
	SwapStall      time.Duration
	// SwapBytes counts host→device bytes the adapter pool copied over
	// PCIe (the GPU-tier fill traffic).
	SwapBytes int64
	// Preemptions counts every displacement (policy-driven evictions
	// and KV-pressure recompute preemptions); RecomputeTokens the
	// already-computed tokens those displacements will re-prefill on
	// resume — the recompute cost model's currency.
	Preemptions     int
	RecomputeTokens int
	PrefixHitRate   float64
	DeadlineMisses  int
	DeadlineTotal   int

	// Tiered adapter-distribution accounting, populated when a
	// registry store backs the run (zero otherwise). GPU-tier lookups
	// happen once per distinct adapter per scheduling iteration; a GPU
	// miss consults the host tier, and a host miss rides a remote
	// fetch.
	GPUTierHits   int
	GPUTierMisses int
	HostHits      int
	HostMisses    int
	// RemoteFetches / FetchBytes count demand fetches this run put on
	// the registry link; PrefetchFetches / PrefetchBytes count the
	// speculative warming issued by the cluster prefetcher.
	RemoteFetches   int
	FetchBytes      int64
	PrefetchFetches int
	PrefetchBytes   int64
	// Chunk-level distribution accounting, populated when a registry
	// store backs the run; zero otherwise. FetchBytes/PrefetchBytes
	// above count bytes actually transferred — deduped chunks count
	// once.
	ChunkFetches    int   // chunk transfers put on the replica links
	ChunkFetchBytes int64 // bytes those transfers moved
	DedupHits       int   // demands served entirely by shared resident chunks
	DedupedBytes    int64 // nominal bytes never transferred thanks to chunk sharing
	ChunkEvictions  int   // chunks freed by refcounted eviction
	// ColdStarts counts completed first tokens of requests that
	// arrived while their adapter was not host-resident; ColdTTFT
	// summarizes their time-to-first-token (ms) — the cold-start tail
	// the prefetcher and the residency quotas attack.
	ColdStarts int
	ColdTTFT   metrics.Summary

	// Multi-tenant accounting, populated by managed (SLO-aware)
	// cluster runs; empty otherwise.
	Tenants []TenantReport
	// FairnessIndex is Jain's index over weight-normalized per-tenant
	// service (1 = every tenant got exactly its configured share).
	FairnessIndex float64
	// Autoscaler activity during the run.
	ScaleUps   int
	ScaleDowns int
	// PeakInstances is the largest concurrently-active fleet size.
	PeakInstances int
}

// TenantReport is one tenant's slice of a managed cluster run.
type TenantReport struct {
	Name     string
	Priority int
	// Submitted counts the tenant's trace arrivals; Completed the
	// requests served to completion; Shed the admission-stage drops;
	// Rejected the instance-level permanent rejections.
	Submitted int
	Completed int
	Shed      int
	Rejected  int
	// SLOMet / SLOTotal: deadline-carrying requests that finished
	// within their deadline, over all deadline-carrying arrivals
	// (shed deadline-carrying requests count as misses).
	SLOMet   int
	SLOTotal int
	// E2E summarizes the tenant's end-to-end latencies (ms).
	E2E metrics.Summary
	// Preemptions counts the tenant's displacements across instances;
	// RecomputeTokens the re-prefill cost they cost the tenant;
	// PreemptedE2E summarizes end-to-end latency (ms) of the tenant's
	// completed requests that were preempted at least once — the price
	// a displaced request actually paid.
	Preemptions     int
	RecomputeTokens int
	PreemptedE2E    metrics.Summary
	// ServedShare is the tenant's fraction of the charged work.
	ServedShare float64
	// Throughput is the tenant's completed requests per simulated
	// second of the aggregate makespan.
	Throughput float64
}

// SLOAttainment reports the fraction of the tenant's deadline-carrying
// requests that completed within deadline (1 when the tenant is
// entirely best-effort).
func (t TenantReport) SLOAttainment() float64 {
	if t.SLOTotal == 0 {
		return 1
	}
	return float64(t.SLOMet) / float64(t.SLOTotal)
}

// Merge folds another instance's counters into r: counts and times
// sum, ModeIterations merge, SimTime takes the longest makespan. The
// derived rate metrics (AvgTokenLatency, Throughput, E2E/TTFT
// summaries) are left for the caller to recompute over the merged
// population — they do not compose by addition.
func (r *Report) Merge(other *Report) {
	r.Requests += other.Requests
	r.Completed += other.Completed
	r.Rejected += other.Rejected
	r.Shed += other.Shed
	r.ScaleUps += other.ScaleUps
	r.ScaleDowns += other.ScaleDowns
	r.Iterations += other.Iterations
	r.Switches += other.Switches
	r.SwitchTime += other.SwitchTime
	r.LoRATime += other.LoRATime
	r.BaseTime += other.BaseTime
	r.SwapIns += other.SwapIns
	r.SwapStall += other.SwapStall
	r.SwapBytes += other.SwapBytes
	r.GPUTierHits += other.GPUTierHits
	r.GPUTierMisses += other.GPUTierMisses
	r.HostHits += other.HostHits
	r.HostMisses += other.HostMisses
	r.RemoteFetches += other.RemoteFetches
	r.FetchBytes += other.FetchBytes
	r.PrefetchFetches += other.PrefetchFetches
	r.PrefetchBytes += other.PrefetchBytes
	r.ChunkFetches += other.ChunkFetches
	r.ChunkFetchBytes += other.ChunkFetchBytes
	r.DedupHits += other.DedupHits
	r.DedupedBytes += other.DedupedBytes
	r.ChunkEvictions += other.ChunkEvictions
	r.ColdStarts += other.ColdStarts
	r.Preemptions += other.Preemptions
	r.RecomputeTokens += other.RecomputeTokens
	r.DeadlineMisses += other.DeadlineMisses
	r.DeadlineTotal += other.DeadlineTotal
	if r.ModeIterations == nil {
		r.ModeIterations = make(map[string]int)
	}
	for k, v := range other.ModeIterations {
		r.ModeIterations[k] += v
	}
	if other.SimTime > r.SimTime {
		r.SimTime = other.SimTime
	}
}

// GPUTierHitRate reports the fraction of per-iteration adapter
// lookups served without a PCIe swap-in.
func (r *Report) GPUTierHitRate() float64 {
	if r.GPUTierHits+r.GPUTierMisses == 0 {
		return 0
	}
	return float64(r.GPUTierHits) / float64(r.GPUTierHits+r.GPUTierMisses)
}

// HostHitRate reports the fraction of GPU-tier misses the host cache
// absorbed without a remote fetch.
func (r *Report) HostHitRate() float64 {
	if r.HostHits+r.HostMisses == 0 {
		return 0
	}
	return float64(r.HostHits) / float64(r.HostHits+r.HostMisses)
}

// DeadlineMissRate reports the fraction of deadline-carrying requests
// that missed.
func (r *Report) DeadlineMissRate() float64 {
	if r.DeadlineTotal == 0 {
		return 0
	}
	return float64(r.DeadlineMisses) / float64(r.DeadlineTotal)
}

// String renders a one-paragraph summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s on %s: %d/%d requests in %v\n", r.System, r.Model, r.Completed, r.Requests, r.SimTime.Round(time.Millisecond))
	fmt.Fprintf(&b, "  avg token latency %.2f ms, throughput %.2f req/s\n", r.AvgTokenLatency, r.Throughput)
	fmt.Fprintf(&b, "  e2e %s\n", r.E2E)
	fmt.Fprintf(&b, "  ttft %s\n", r.TTFT)
	fmt.Fprintf(&b, "  %d iterations (modes %v), %d switches (%v), swap stall %v, prefix hit %.0f%%\n",
		r.Iterations, r.ModeIterations, r.Switches, r.SwitchTime.Round(time.Microsecond),
		r.SwapStall.Round(time.Microsecond), 100*r.PrefixHitRate)
	if r.HostHits+r.HostMisses+r.RemoteFetches > 0 {
		fmt.Fprintf(&b, "  tiers: gpu hit %.0f%%, host hit %.0f%%, %d remote fetches (%.0f MB, %d prefetched), %d cold starts (ttft p99 %.1f ms)\n",
			100*r.GPUTierHitRate(), 100*r.HostHitRate(), r.RemoteFetches+r.PrefetchFetches,
			float64(r.FetchBytes+r.PrefetchBytes)/float64(1<<20), r.PrefetchFetches,
			r.ColdStarts, r.ColdTTFT.P99)
	}
	if r.ChunkFetches > 0 || r.DedupHits > 0 {
		// Only runs whose store moved or deduped chunks print the chunk
		// line.
		fmt.Fprintf(&b, "  chunks: %d transfers (%.0f MB), %d dedup hits, %.0f MB deduped, %d chunk evictions\n",
			r.ChunkFetches, float64(r.ChunkFetchBytes)/float64(1<<20),
			r.DedupHits, float64(r.DedupedBytes)/float64(1<<20), r.ChunkEvictions)
	}
	if r.Preemptions > 0 {
		fmt.Fprintf(&b, "  preemptions %d (%d tokens recomputed)\n", r.Preemptions, r.RecomputeTokens)
	}
	if len(r.Tenants) > 0 {
		fmt.Fprintf(&b, "  fairness (Jain) %.3f, shed %d, scale +%d/-%d (peak %d instances)\n",
			r.FairnessIndex, r.Shed, r.ScaleUps, r.ScaleDowns, r.PeakInstances)
		for _, t := range r.Tenants {
			fmt.Fprintf(&b, "  tenant %-12s slo %5.1f%%  completed %d shed %d  p99 %.1f ms  share %.0f%%\n",
				t.Name, 100*t.SLOAttainment(), t.Completed, t.Shed, t.E2E.P99, 100*t.ServedShare)
		}
	}
	return b.String()
}
