package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"valora/internal/lmm"
	"valora/internal/lora"
	"valora/internal/registry"
	"valora/internal/sched"
	"valora/internal/serving"
	"valora/internal/simgpu"
	"valora/internal/workload"
)

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	why  string
	// repeatSeconds is the nominal wall time of one repeat at full
	// size; the measuring time divided by it is the repeat count.
	repeatSeconds float64
	live          bool
	// build generates a replay's trace and cluster from a seed; lg is
	// nil on untraced runs. Replays only.
	build func(seed int64, scale float64, lg *ledger) (*replay, error)
	// slo judges one finished replay request: whether it carries an
	// SLO, and whether it met it. Replays only.
	slo func(r *sched.Request) (judged, met bool)
	// capacity, when set, finds the highest offered rate that meets
	// the SLO (the traced ledger's capacity.slo_rate_rps).
	capacity func(seed int64, scale float64) (float64, error)
}

// replay is one generated trace and the cluster that will serve it.
type replay struct {
	trace workload.Trace
	run   func() (*serving.Report, error)
}

// ttftSLO is the first-token limit of requests without a deadline.
const ttftSLO = 250 * time.Millisecond

var workloads = []*workloadDef{
	{
		name:          "stress-replay",
		why:           "1M small requests at 0.9x capacity on 4 unmanaged instances: per-request engine bookkeeping is the whole cost",
		repeatSeconds: 2.5,
		build:         buildStress,
		slo:           ttftWithin,
		capacity:      stressCapacity,
	},
	{
		name:          "tenants-preempt",
		why:           "realtime 250 ms deadlines beside long batch decodes under fair-share admission: admission and preemption do the work",
		repeatSeconds: 0.8,
		build:         buildPreempt,
		slo:           deadlineMet,
	},
	{
		name:          "fleet-registry",
		why:           "2000 family adapters behind a 200-adapter chunked host tier: the only workload that fetches and prefetches adapters",
		repeatSeconds: 1.8,
		build:         buildFleet,
		slo:           ttftWithin,
	},
	{
		name:          "live-openai",
		why:           "the real valora-server under a closed loop of OpenAI chat calls: HTTP, JSON, the locked live engine, /metrics and trace capture",
		repeatSeconds: liveRepeatSeconds,
		live:          true,
	},
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func selectWorkloads(name string) ([]*workloadDef, error) {
	if name == "all" {
		return workloads, nil
	}
	for _, w := range workloads {
		if w.name == name {
			return []*workloadDef{w}, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want %s, or all)", name, workloadNames())
}

func findWorkload(name string) (*workloadDef, error) {
	defs, err := selectWorkloads(name)
	if err != nil || len(defs) != 1 {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return defs[0], nil
}

// scaled shrinks a full-size quantity by scale, keeping at least least.
func scaled(full, scale, least float64) float64 {
	return math.Max(least, math.Round(full*scale))
}

func completed(r *sched.Request) bool {
	return r.Phase == sched.PhaseDone && r.Emitted >= r.OutputTokens
}

func ttftWithin(r *sched.Request) (bool, bool) {
	return true, completed(r) && r.FirstToken-r.Arrival <= ttftSLO
}

func deadlineMet(r *sched.Request) (bool, bool) {
	return r.Deadline > 0, completed(r) && r.Latency() <= r.Deadline
}

// instances returns a cluster's per-instance options factory: the
// VaLoRA preset, edited, then wrapped by the ledger's decorators.
func instances(lg *ledger, edit func(*serving.Options)) func(int) (serving.Options, error) {
	return func(int) (serving.Options, error) {
		opts, err := serving.SystemOptions(serving.SystemVaLoRA, simgpu.A100(), lmm.QwenVL7B())
		if err != nil {
			return opts, err
		}
		edit(&opts)
		lg.wrap(&opts)
		return opts, nil
	}
}

// stressRate is the offered load of stress-replay: 0.9x the 552 req/s
// the 4-instance fleet sustains, so TTFT measures service, not backlog.
const stressRate = 500

func buildStress(seed int64, scale float64, lg *ledger) (*replay, error) {
	return buildStressAt(int(scaled(1_000_000, scale, 1000)), stressRate, seed, lg)
}

// buildStressAt is stress-replay at n requests offered at rate req/s.
func buildStressAt(n int, rate float64, seed int64, lg *ledger) (*replay, error) {
	cfg := workload.DefaultStress(n, seed)
	cfg.Rate = rate
	tr := workload.GenStress(cfg)
	cl, err := serving.NewClusterWithDispatch(4, lg.dispatch(serving.NewRoundRobin()), instances(lg, func(opts *serving.Options) {
		opts.LatencySampleCap = 1 << 20
	}))
	if err != nil {
		return nil, err
	}
	return &replay{trace: tr, run: func() (*serving.Report, error) { return cl.Run(tr) }}, nil
}

// stressCapacity bisects stress-replay's offered rate between 300 and
// 700 req/s, to 5 req/s, on 200k-request traces served by the same
// fleet. A rate meets the SLO when virtual TTFT p99 is within ttftSLO
// and virtual throughput keeps up with 98% of the offered rate.
func stressCapacity(seed int64, scale float64) (float64, error) {
	n := int(scaled(200_000, scale, 1000))
	meets := func(rate float64) (bool, error) {
		rp, err := buildStressAt(n, rate, seed, nil)
		if err != nil {
			return false, err
		}
		rep, err := rp.run()
		if err != nil {
			return false, err
		}
		ttft := make([]float64, 0, n)
		for _, r := range rp.trace {
			if completed(r) {
				ttft = append(ttft, ms(r.FirstToken-r.Arrival))
			}
		}
		sort.Float64s(ttft)
		return percentile(ttft, 0.99) <= ms(ttftSLO) && rep.Throughput >= 0.98*rate, nil
	}
	lo, hi := 300.0, 700.0
	if ok, err := meets(lo); err != nil || !ok {
		return 0, err
	}
	for hi-lo > 5 {
		mid := (lo + hi) / 2
		ok, err := meets(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

func buildPreempt(seed int64, scale float64, lg *ledger) (*replay, error) {
	g, model := simgpu.A100(), lmm.QwenVL7B()
	// 300 s traces: the virtual tail of one trace swings with its few
	// worst bursts, so more, shorter inputs give a steadier median.
	duration := time.Duration(scaled(300, scale, 10)) * time.Second
	tr := workload.GenMultiTenant(workload.DefaultPreemptMix(duration, 8, seed))
	cfg := serving.SchedulingConfig{
		Tenants:         workload.PreemptTenantClasses(),
		FairShare:       true,
		HighWater:       192,
		EstimateService: serving.ServiceFloor(g, model),
	}
	cl, err := serving.NewManagedCluster(8, lg.dispatch(serving.NewLeastLoaded()), cfg, instances(lg, func(opts *serving.Options) {
		p := sched.NewVaLoRAPolicy()
		p.Preempt, p.DeadlineCredit = true, true
		opts.Policy = p
		opts.AdmitCap = 48
		opts.Preemption = &serving.PreemptionConfig{MaxPreemptions: 2}
	}))
	if err != nil {
		return nil, err
	}
	return &replay{trace: tr, run: func() (*serving.Report, error) { return cl.Run(tr) }}, nil
}

// newFleet is fleet-registry's inspection traffic shape, its 2000
// adapters in 50 families sharing 5/8 of their bytes, and the chunked
// store behind them: a host tier of 200 adapters, 1/32-adapter chunks
// and 3 replica links weighted 2:1 between the tenants.
func newFleet(seed int64, duration time.Duration) (workload.FleetConfig, []*lora.Adapter, *registry.Store) {
	model := lmm.QwenVL7B()
	fcfg := workload.DefaultFleet(50, 40, 2, duration, seed)
	fcfg.Tenants = []string{"inspect-a", "inspect-b"}
	fcfg.SweepLen = 4
	adapters := lora.MakeUniformAdapters(model, fcfg.AdapterCount(), model.DefaultRank)
	ab := adapters[0].Bytes()
	familyOf := func(id int) (string, int64) { return fcfg.FamilyOf(id), ab * 5 / 8 }
	store := registry.NewStore(registry.Config{
		HostCapacity:    200 * ab,
		RemoteLatency:   5 * time.Millisecond,
		RemoteBandwidth: 2.5e9,
		ChunkSize:       ab / 32,
		Replicas:        3,
		LinkWeights:     map[string]float64{"inspect-a": 2, "inspect-b": 1},
	}, registry.CatalogFromFamilies(adapters, fcfg.TenantOf, familyOf))
	return fcfg, adapters, store
}

func buildFleet(seed int64, scale float64, lg *ledger) (*replay, error) {
	fcfg, adapters, store := newFleet(seed, time.Duration(scaled(7200, scale, 60))*time.Second)
	ab := adapters[0].Bytes()
	cfg := serving.SchedulingConfig{
		Tenants:           []sched.TenantConfig{{Name: "inspect-a", Weight: 2}, {Name: "inspect-b", Weight: 1}},
		FairShare:         true,
		HighWater:         4,
		Store:             store,
		PrefetchLookahead: 4,
		FamilyWarm:        2,
	}
	cl, err := serving.NewManagedCluster(3, lg.dispatch(serving.NewLeastLoaded()), cfg, instances(lg, func(opts *serving.Options) {
		opts.Registry = lora.NewRegistry(adapters...)
		opts.AdapterPoolBytes = 8 * ab
		opts.Store = store
	}))
	if err != nil {
		return nil, err
	}
	tr := workload.GenFleet(fcfg)
	workload.MarkColdCandidates(tr, 2*time.Second)
	return &replay{trace: tr, run: func() (*serving.Report, error) { return cl.Run(tr) }}, nil
}
