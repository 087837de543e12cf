package main

import (
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"valora/internal/atmm"
	"valora/internal/lora"
	"valora/internal/sched"
	"valora/internal/serving"
)

// span counts the calls into one layer and sums their wall time.
type span struct{ calls, ns int64 }

func (s *span) since(t time.Time) {
	s.calls++
	s.ns += int64(time.Since(t))
}

// meanNS is the mean wall time of one call.
func (s span) meanNS() float64 {
	if s.calls == 0 {
		return 0
	}
	return float64(s.ns) / float64(s.calls)
}

// ledger collects a traced replay's spans in memory: decorators on the
// interfaces the engine already accepts time every call into the
// policy, the LoRA operator, the mode switcher and the dispatcher. A
// nil ledger wraps nothing, which is how untraced runs build the same
// cluster. Replays step on one goroutine, so the counters need no lock.
type ledger struct {
	decide, layerTime, switchTime, pick span
	batched                             int64
}

// wrap installs the decorators on one instance's options.
func (l *ledger) wrap(opts *serving.Options) {
	if l == nil {
		return
	}
	opts.Policy = &timedPolicy{Policy: opts.Policy, l: l}
	opts.Operator = &timedOperator{Operator: opts.Operator, s: &l.layerTime}
	opts.Switcher = &timedSwitcher{Switcher: opts.Switcher, s: &l.switchTime}
}

// dispatch wraps a cluster's dispatcher, keeping the StatelessDispatch
// marker when the wrapped policy has it.
func (l *ledger) dispatch(d serving.DispatchPolicy) serving.DispatchPolicy {
	if l == nil {
		return d
	}
	t := &timedDispatch{DispatchPolicy: d, s: &l.pick}
	if _, ok := d.(serving.StatelessDispatch); ok {
		return timedStatelessDispatch{t}
	}
	return t
}

type timedPolicy struct {
	sched.Policy
	l *ledger
}

func (p *timedPolicy) Decide(it sched.Iteration) sched.Decision {
	t := time.Now()
	d := p.Policy.Decide(it)
	p.l.decide.since(t)
	p.l.batched += int64(len(d.Batch))
	return d
}

type timedOperator struct {
	atmm.Operator
	s *span
}

func (o *timedOperator) LayerTime(b atmm.Batch) (time.Duration, error) {
	t := time.Now()
	d, err := o.Operator.LayerTime(b)
	o.s.since(t)
	return d, err
}

type timedSwitcher struct {
	lora.Switcher
	s *span
}

func (w *timedSwitcher) SwitchTime(from, to lora.State) time.Duration {
	t := time.Now()
	d := w.Switcher.SwitchTime(from, to)
	w.s.since(t)
	return d
}

func (w *timedSwitcher) MergeTime(rank int) time.Duration {
	t := time.Now()
	d := w.Switcher.MergeTime(rank)
	w.s.since(t)
	return d
}

type timedDispatch struct {
	serving.DispatchPolicy
	s *span
}

func (p *timedDispatch) Pick(r *sched.Request, servers []*serving.Server) int {
	t := time.Now()
	i := p.DispatchPolicy.Pick(r, servers)
	p.s.since(t)
	return i
}

type timedStatelessDispatch struct{ *timedDispatch }

func (timedStatelessDispatch) StatelessDispatch() {}

// moduleOf maps a function name to its valora/internal module, or ""
// for code outside them.
func moduleOf(fn string) string {
	const prefix = "valora/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	rest := fn[len(prefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, m := range modules {
		if m == rest {
			return m
		}
	}
	return "other"
}

// allocProfileRate is the traced runs' runtime.MemProfileRate: one
// sample per 512 allocated bytes on average.
const allocProfileRate = 512

// allocByModule folds runtime.MemProfile into allocated bytes per
// module: each record goes to the innermost valora/internal frame of
// its stack, or to "runtime" when it has none. Sampled sizes are
// scaled back to totals the way pprof scales heap samples. The
// profile covers allocations up to the last completed GC, so callers
// run runtime.GC first.
func allocByModule() map[string]float64 {
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
	}
	out := make(map[string]float64)
	rate := float64(runtime.MemProfileRate)
	for _, r := range recs[:n] {
		if r.AllocObjects == 0 {
			continue
		}
		bytes := float64(r.AllocBytes)
		avg := bytes / float64(r.AllocObjects)
		out[innermostModule(r.Stack())] += bytes / (1 - math.Exp(-avg/rate))
	}
	return out
}

func innermostModule(stack []uintptr) string {
	frames := runtime.CallersFrames(stack)
	for {
		f, more := frames.Next()
		if m := moduleOf(f.Function); m != "" {
			return m
		}
		if !more {
			return "runtime"
		}
	}
}

// layerShares writes <module>.cpu_share from folded CPU samples and
// <module>.alloc_bytes_per_req from folded allocations.
func layerShares(out map[string]float64, cpu map[string]int64, allocs map[string]float64, requests int) {
	var total int64
	for _, n := range cpu {
		total += n
	}
	out["bench.cpu_samples"] = float64(total)
	for _, m := range modules {
		if total > 0 {
			out[m+".cpu_share"] = float64(cpu[m]) / float64(total)
		}
		if requests > 0 {
			out[m+".alloc_bytes_per_req"] = allocs[m] / float64(requests)
		}
	}
}

// spanMetrics writes the decorator spans, per replay of loops replays.
func (l *ledger) spanMetrics(out map[string]float64, loops int) {
	per := func(n int64) float64 { return float64(n) / float64(loops) }
	out["sched.decide_ns"] = l.decide.meanNS()
	out["sched.decide_calls"] = per(l.decide.calls)
	if l.decide.calls > 0 {
		out["sched.batch_size_mean"] = float64(l.batched) / float64(l.decide.calls)
	}
	out["atmm.layer_time_ns"] = l.layerTime.meanNS()
	out["atmm.layer_time_calls"] = per(l.layerTime.calls)
	out["lora.switch_ns"] = l.switchTime.meanNS()
	out["lora.switch_calls"] = per(l.switchTime.calls)
	out["serving.dispatch_ns"] = l.pick.meanNS()
	out["serving.dispatch_calls"] = per(l.pick.calls)
}

// reportMetrics writes the counters the engine's Report already keeps.
func reportMetrics(out map[string]float64, rep *serving.Report) {
	mb := func(b int64) float64 { return float64(b) / (1 << 20) }
	out["sched.preemptions"] = float64(rep.Preemptions)
	out["sched.recompute_tokens"] = float64(rep.RecomputeTokens)
	out["sched.shed"] = float64(rep.Shed)
	out["lora.switches"] = float64(rep.Switches)
	out["lora.switch_stall_ms"] = ms(rep.SwitchTime)
	out["lora.swap_ins"] = float64(rep.SwapIns)
	out["lora.swap_stall_ms"] = ms(rep.SwapStall)
	out["lora.swap_mb"] = mb(rep.SwapBytes)
	out["lora.gpu_tier_hit_rate"] = rep.GPUTierHitRate()
	out["lmm.base_ms"] = ms(rep.BaseTime)
	out["atmm.lora_ms"] = ms(rep.LoRATime)
	out["registry.host_hit_rate"] = rep.HostHitRate()
	out["registry.remote_fetches"] = float64(rep.RemoteFetches)
	out["registry.prefetch_fetches"] = float64(rep.PrefetchFetches)
	out["registry.chunk_fetches"] = float64(rep.ChunkFetches)
	out["registry.fetch_mb"] = mb(rep.FetchBytes + rep.PrefetchBytes)
	out["registry.deduped_mb"] = mb(rep.DedupedBytes)
	out["registry.chunk_evictions"] = float64(rep.ChunkEvictions)
	out["registry.cold_starts"] = float64(rep.ColdStarts)
	out["registry.cold_ttft_p99_ms"] = rep.ColdTTFT.P99
	out["serving.iterations"] = float64(rep.Iterations)
}

// phaseMetrics writes the virtual per-request phase percentiles from
// arrival, first-schedule, first-token and finish timestamps.
func phaseMetrics(out map[string]float64, ph phases) {
	for _, s := range [][]float64{ph.wait, ph.prefill, ph.decode} {
		sort.Float64s(s)
	}
	out["sched.queue_wait_p50_ms"] = percentile(ph.wait, 0.5)
	out["sched.queue_wait_p99_ms"] = percentile(ph.wait, 0.99)
	out["lmm.prefill_p99_ms"] = percentile(ph.prefill, 0.99)
	out["lmm.decode_p99_ms"] = percentile(ph.decode, 0.99)
}

// phases are per-request virtual phase durations in ms.
type phases struct{ wait, prefill, decode []float64 }

func (ph *phases) add(arrival, admission, firstToken, finish time.Duration) {
	ph.wait = append(ph.wait, ms(admission-arrival))
	ph.prefill = append(ph.prefill, ms(firstToken-admission))
	ph.decode = append(ph.decode, ms(finish-firstToken))
}
