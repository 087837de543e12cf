package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"valora/internal/serving"
	"valora/internal/workload"
)

// replayResult is what one replay child measured.
type replayResult struct {
	SetupS     float64 `json:"setup_s"`
	WallS      float64 `json:"wall_s"`
	CPUS       float64 `json:"cpu_s"`
	PeakRSSKB  int64   `json:"peak_rss_kb"`
	AllocBytes uint64  `json:"alloc_bytes"`
	Mallocs    uint64  `json:"mallocs"`

	Requests  int `json:"requests"`
	Completed int `json:"completed"`
	Rejected  int `json:"rejected"`
	Shed      int `json:"shed"`

	// Virtual latencies (ms) over the completed requests.
	Samples   int     `json:"samples"`
	TTFTP50MS float64 `json:"ttft_p50_ms"`
	TTFTP99MS float64 `json:"ttft_p99_ms"`
	E2EP99MS  float64 `json:"e2e_p99_ms"`
	SLOJudged int     `json:"slo_judged"`
	SLOMet    int     `json:"slo_met"`

	// Digest identifies the virtual Report: equal digests mean equal
	// Reports, field for field.
	Digest string `json:"digest"`
	// Ledger holds the per-layer metrics of a traced replay.
	Ledger map[string]float64 `json:"ledger,omitempty"`
}

// replayOnce is one untraced repeat: set up, replay, measure.
func replayOnce(def *workloadDef, j job) (*replayResult, error) {
	start := time.Now()
	rp, err := def.build(j.Seed, j.Scale, nil)
	if err != nil {
		return nil, err
	}
	setup := time.Since(start)
	runtime.GC() // set-up garbage is not the replay's to collect

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := selfCPU()
	t := time.Now()
	rep, err := rp.run()
	wall := time.Since(t)
	cpu1 := selfCPU()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSKB("self")
	if err != nil {
		return nil, err
	}

	res := summarize(def, rp.trace, rep)
	res.SetupS = setup.Seconds()
	res.WallS = wall.Seconds()
	res.CPUS = (cpu1 - cpu0).Seconds()
	res.PeakRSSKB = rss
	res.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.Mallocs = m1.Mallocs - m0.Mallocs
	return res, nil
}

// summarize reads the Report's counts and each request's virtual
// timestamps.
func summarize(def *workloadDef, tr workload.Trace, rep *serving.Report) *replayResult {
	res := &replayResult{Requests: len(tr), Completed: rep.Completed, Rejected: rep.Rejected,
		Shed: rep.Shed, Digest: digest(rep)}
	ttft := make([]float64, 0, len(tr))
	e2e := make([]float64, 0, len(tr))
	for _, r := range tr {
		if judged, met := def.slo(r); judged {
			res.SLOJudged++
			if met {
				res.SLOMet++
			}
		}
		if completed(r) {
			ttft = append(ttft, ms(r.FirstToken-r.Arrival))
			e2e = append(e2e, ms(r.Latency()))
		}
	}
	sort.Float64s(ttft)
	sort.Float64s(e2e)
	res.Samples = len(ttft)
	res.TTFTP50MS = percentile(ttft, 0.5)
	res.TTFTP99MS = percentile(ttft, 0.99)
	res.E2EP99MS = percentile(e2e, 0.99)
	return res
}

func digest(rep *serving.Report) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", *rep)))
	return hex.EncodeToString(sum[:])
}

const (
	// cpuProfileHz raises the CPU profile's sampling rate from pprof's
	// 100 Hz so one replay yields about a thousand samples or more.
	cpuProfileHz = 1000
	// minCPUSamples is the sample count a full-size traced run replays
	// until it reaches, at most maxTracedLoops times.
	minCPUSamples  = 1000
	maxTracedLoops = 20
)

// tracedReplay replays round 0's inputs with the decorators installed,
// a CPU profile around each Run and allocation profiling on, until the
// profile holds minCPUSamples samples. The first replay's Report and
// virtual timestamps stand for all of them: they are identical.
func tracedReplay(def *workloadDef, j job) (*replayResult, error) {
	lg := &ledger{}
	cpu := map[string]int64{}
	allocs := map[string]float64{}
	var first *replayResult
	var samples int64
	requests, loops := 0, 0
	// The target shrinks with the workload, so scaled-down replays do
	// not loop for a full-size sample count.
	want := int64(math.Ceil(minCPUSamples * j.Scale))
	for loops == 0 || (samples < want && loops < maxTracedLoops) {
		loops++
		rp, err := def.build(j.Seed, j.Scale, lg)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		before := allocByModule()
		var prof bytes.Buffer
		runtime.SetCPUProfileRate(cpuProfileHz) // pprof then keeps this rate
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		t := time.Now()
		rep, err := rp.run()
		wall := time.Since(t)
		pprof.StopCPUProfile()
		if err != nil {
			return nil, err
		}
		runtime.GC()
		for m, b := range allocByModule() {
			allocs[m] += b - before[m]
		}
		folded, err := foldCPUProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		for m, n := range folded {
			cpu[m] += n
			samples += n
		}
		requests += len(rp.trace)
		if first == nil {
			first = summarize(def, rp.trace, rep)
			first.WallS = wall.Seconds()
			first.Ledger = map[string]float64{}
			reportMetrics(first.Ledger, rep)
			var ph phases
			for _, r := range rp.trace {
				if completed(r) {
					ph.add(r.Arrival, r.FirstSchedule, r.FirstToken, r.Finish)
				}
			}
			phaseMetrics(first.Ledger, ph)
		}
	}
	lg.spanMetrics(first.Ledger, loops)
	layerShares(first.Ledger, cpu, allocs, requests)
	return first, nil
}

// sloRate is the capacity search child.
func sloRate(j job) (float64, error) {
	def, err := findWorkload(j.Workload)
	if err != nil {
		return 0, err
	}
	if def.capacity == nil {
		return 0, fmt.Errorf("%s has no capacity search", def.name)
	}
	return def.capacity(j.Seed, j.Scale)
}

// replayRun measures a replay's end-to-end metrics over k repeats,
// each in a fresh process with its own inputs, then replays repeat 0's
// inputs once more to check the virtual Report is deterministic.
type replayRun struct {
	cfg  config
	def  *workloadDef
	k    int
	reps []*replayResult
}

func (w *replayRun) rounds() int { return w.k + 1 }

func (w *replayRun) round(ctx context.Context, r int) error {
	input := r
	if r == w.k {
		input = 0
	}
	rr := new(replayResult)
	w.reps = append(w.reps, rr)
	return spawn(ctx, job{Role: "replay", Workload: w.def.name, Seed: subSeed(w.cfg.seed, input), Scale: w.cfg.scale}, rr)
}

func (w *replayRun) result(speed float64) *result {
	res := newResult(endToEnd)
	res.repeat = len(w.reps)
	var setup, rps, cpu, rss []float64
	for _, r := range w.reps {
		conservation(res, r)
		setup = append(setup, r.SetupS)
		rps = append(rps, float64(r.Requests)/r.WallS)
		cpu = append(cpu, r.CPUS*1e6/float64(r.Requests))
		rss = append(rss, float64(r.PeakRSSKB)/1024)
	}
	if again := w.reps[w.k]; again.Digest != w.reps[0].Digest {
		res.fail("determinism: replaying repeat 0's inputs gave a different Report")
	}
	var ttft50, ttft99, e2e99 []float64
	judged, met := 0, 0
	for _, r := range w.reps[:w.k] {
		ttft50 = append(ttft50, r.TTFTP50MS)
		ttft99 = append(ttft99, r.TTFTP99MS)
		e2e99 = append(e2e99, r.E2EP99MS)
		judged += r.SLOJudged
		met += r.SLOMet
	}
	n := len(w.reps)
	per := fmt.Sprintf("median of %d inputs, each a percentile of ~%d virtual samples", w.k, w.reps[0].Samples)
	res.setScaled("setup_s", setup, speed, fmt.Sprintf("median of %d set-ups (trace generation + cluster build)", n))
	res.setScaled("wall_rps", rps, 1/speed, fmt.Sprintf("median of %d replays of ~%d requests", n, w.reps[0].Requests))
	res.setScaled("cpu_us_per_req", cpu, speed, fmt.Sprintf("median of %d replays, user+sys", n))
	res.setMedian("peak_rss_mb", rss, fmt.Sprintf("median of %d processes, VmHWM after the replay", n))
	res.setMedian("ttft_p50_ms", ttft50, per)
	res.setMedian("ttft_p99_ms", ttft99, per)
	res.setMedian("e2e_p99_ms", e2e99, per)
	if judged > 0 {
		res.set("slo_attainment", float64(met)/float64(judged))
	}
	m := res.Metrics["slo_attainment"]
	m.note = fmt.Sprintf("%d of %d SLO-carrying requests over %d inputs", met, judged, w.k)
	res.Metrics["slo_attainment"] = m
	return res
}

// conservation is the gate every replay passes: each arrival completes,
// is rejected, or is shed.
func conservation(res *result, r *replayResult) {
	res.Attempted += r.Requests
	res.Failed += r.Rejected + r.Shed
	if r.Completed+r.Rejected+r.Shed != r.Requests {
		res.fail("conservation: %d completed + %d rejected + %d shed != %d arrivals",
			r.Completed, r.Rejected, r.Shed, r.Requests)
	}
}

// replayLedger is a replay's traced run: an untraced repeat and a
// traced one on the same inputs, each in its own process.
type replayLedger struct {
	cfg config
	def *workloadDef
	res *result
}

func (w *replayLedger) rounds() int { return 1 }

func (w *replayLedger) round(ctx context.Context, _ int) error {
	j := job{Role: "replay", Workload: w.def.name, Seed: subSeed(w.cfg.seed, 0), Scale: w.cfg.scale}
	var plain, traced replayResult
	if err := spawn(ctx, j, &plain); err != nil {
		return err
	}
	j.Role = "traced"
	if err := spawn(ctx, j, &traced); err != nil {
		return err
	}
	res := newResult(perLayer)
	res.repeat = 2
	for name, v := range traced.Ledger {
		res.set(name, v)
	}
	conservation(res, &traced)
	if traced.Digest != plain.Digest {
		res.fail("no perturbation: the traced Report differs from the untraced one")
	}
	res.set("process.alloc_bytes_per_req", float64(plain.AllocBytes)/float64(plain.Requests))
	res.set("process.allocs_per_req", float64(plain.Mallocs)/float64(plain.Requests))
	res.set("bench.trace_overhead_frac", traced.WallS/plain.WallS-1)
	if w.def.capacity != nil {
		var rate float64
		j.Role = "slorate"
		if err := spawn(ctx, j, &rate); err != nil {
			return err
		}
		res.set("capacity.slo_rate_rps", rate)
	}
	w.res = res
	return nil
}

func (w *replayLedger) result(float64) *result { return w.res }
