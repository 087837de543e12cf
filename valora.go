// Package valora is a self-contained Go reproduction of "Empower
// Vision Applications with LoRA LMM" (EuroSys 2025): an end-to-end
// LoRA-LMM serving system — accuracy-aware LoRA adapter generation,
// the adaptive-tiling ATMM batching operator, and the flexible
// merge/mixture/unmerge orchestrator — built over an analytic GPU
// cost model so the full system runs on a laptop in virtual time.
//
// The package is a facade over the internal substrates:
//
//   - Generate integrates external knowledge (domain datasets) into
//     the minimum number of LoRA adapters under accuracy floors
//     (§4.2's knowledge-fusion algorithm), returning trained adapters
//     with measured accuracies.
//   - New builds a serving System: the VaLoRA runtime (or one of the
//     paper's baselines) on a simulated A100 around a chosen LMM.
//   - System.Serve replays a whole trace through the step-wise,
//     event-driven engine (each iteration: admit → policy decide →
//     mode switch → adapter residency → iteration advance) and returns
//     the serving report (average token latency, throughput,
//     mode/switch/swap accounting).
//   - NewCluster scales to several instances on one shared virtual
//     timeline, routing requests by a dispatch policy (round-robin,
//     least-loaded, or adapter-affinity — which pins each adapter's
//     traffic to a replica to cut switch and swap traffic).
//
// A minimal end-to-end use:
//
//	sys, err := valora.New(valora.Config{})
//	if err != nil { ... }
//	trace := valora.RetrievalWorkload(6, 30*time.Second, 16, 0.6, 1)
//	report, err := sys.Serve(trace)
//	fmt.Println(report)
package valora

import (
	"time"

	"valora/internal/lmm"
	"valora/internal/lora"
	"valora/internal/sched"
	"valora/internal/serving"
	"valora/internal/simgpu"
	"valora/internal/train"
	"valora/internal/workload"
)

// Re-exported kinds and helpers so callers need only this package.
type (
	// SystemKind selects which serving system to build (VaLoRA or a
	// baseline).
	SystemKind = serving.SystemKind
	// Report is a serving run's result.
	Report = serving.Report
	// Trace is a workload of requests.
	Trace = workload.Trace
	// Request is one inference request (Trace element).
	Request = sched.Request
	// ModelConfig describes an LMM (Table 2).
	ModelConfig = lmm.Config
	// TaskType enumerates the supported vision tasks.
	TaskType = train.TaskType
	// Adapter is a runtime LoRA adapter descriptor.
	Adapter = lora.Adapter
	// TenantSpec declares one tenant's service class (guaranteed
	// weight, burst credit, queue cap) for managed clusters.
	TenantSpec = sched.TenantConfig
	// TenantTraffic shapes one tenant's arrival process (diurnal
	// sinusoid, Poisson bursts, adapter mix) in a multi-tenant trace.
	TenantTraffic = workload.TenantTraffic
	// SchedulingConfig configures a managed cluster's admission and
	// fair-share dispatch stages.
	SchedulingConfig = serving.SchedulingConfig
	// AutoscaleConfig bounds and paces a managed cluster's elastic
	// fleet.
	AutoscaleConfig = serving.AutoscaleConfig
	// TenantReport is one tenant's slice of a managed cluster report.
	TenantReport = serving.TenantReport
)

// Serving systems.
const (
	VaLoRA SystemKind = serving.SystemVaLoRA
	SLoRA  SystemKind = serving.SystemSLoRA
	Punica SystemKind = serving.SystemPunica
	DLoRA  SystemKind = serving.SystemDLoRA
)

// Vision tasks.
const (
	ImageClassification = train.ImageClassification
	ObjectDetection     = train.ObjectDetection
	VideoClassification = train.VideoClassification
	VisualQA            = train.VisualQA
	ImageCaptioning     = train.ImageCaptioning
)

// Model configurations from the paper's Table 2.
func QwenVL7B() ModelConfig { return lmm.QwenVL7B() }
func LLaVA7B() ModelConfig  { return lmm.LLaVA7B() }
func LLaVA13B() ModelConfig { return lmm.LLaVA13B() }

// Config selects what to build.
type Config struct {
	// System picks the runtime; default VaLoRA.
	System SystemKind
	// Model picks the LMM; default Qwen-VL-7B.
	Model ModelConfig
	// Adapters registers the adapters requests may route to; nil uses
	// on-demand default-rank descriptors.
	Adapters []*Adapter
	// MaxBatch caps the per-iteration batch (default 32).
	MaxBatch int
	// AdapterPoolBytes bounds resident adapter memory (default 8 GiB).
	AdapterPoolBytes int64
	// DisablePrefixCache turns image-KV reuse off (Fig. 24 ablation).
	DisablePrefixCache bool
}

// System is a ready-to-serve instance.
type System struct {
	server *serving.Server
	kind   SystemKind
	model  ModelConfig
}

// withDefaults fills the zero-value System and Model choices.
func (cfg Config) withDefaults() Config {
	if cfg.System == "" {
		cfg.System = VaLoRA
	}
	if cfg.Model.Layers == 0 {
		cfg.Model = QwenVL7B()
	}
	return cfg
}

// options maps a (defaulted) Config onto one serving instance's
// Options — shared by New and NewCluster so single-instance and
// cluster builds of the same Config cannot drift.
func (cfg Config) options() (serving.Options, error) {
	opts, err := serving.SystemOptions(cfg.System, simgpu.A100(), cfg.Model)
	if err != nil {
		return serving.Options{}, err
	}
	if cfg.MaxBatch > 0 {
		opts.MaxBatch = cfg.MaxBatch
	}
	if cfg.AdapterPoolBytes > 0 {
		opts.AdapterPoolBytes = cfg.AdapterPoolBytes
	}
	if cfg.DisablePrefixCache {
		opts.PrefixCacheImages = 0
	}
	if len(cfg.Adapters) > 0 {
		opts.Registry = lora.NewRegistry(cfg.Adapters...)
	}
	return opts, nil
}

// New builds a serving system on a simulated A100.
func New(cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	opts, err := cfg.options()
	if err != nil {
		return nil, err
	}
	srv, err := serving.NewServer(opts)
	if err != nil {
		return nil, err
	}
	return &System{server: srv, kind: cfg.System, model: cfg.Model}, nil
}

// Serve replays a trace and returns the report. The engine's clock,
// caches and report accumulate across calls, so build a fresh System
// per experiment run when results must be independent.
func (s *System) Serve(trace Trace) (*Report, error) {
	return s.server.Run(trace)
}

// DispatchKind selects how a cluster routes requests to replicas.
type DispatchKind string

const (
	// RoundRobinDispatch cycles requests through replicas.
	RoundRobinDispatch DispatchKind = "round-robin"
	// LeastLoadedDispatch routes to the replica with the fewest
	// in-flight requests.
	LeastLoadedDispatch DispatchKind = "least-loaded"
	// AdapterAffinityDispatch pins each adapter's traffic to one
	// replica, cutting mode-switch and adapter-swap traffic.
	AdapterAffinityDispatch DispatchKind = "adapter-affinity"
)

// ClusterSystem is a multi-instance serving system on one shared
// virtual timeline.
type ClusterSystem struct {
	cluster *serving.Cluster
}

// NewCluster builds n replicas of the configured system, routed by the
// given dispatch policy (empty means round-robin).
func NewCluster(cfg Config, n int, dispatch DispatchKind) (*ClusterSystem, error) {
	cfg = cfg.withDefaults()
	pol, err := serving.DispatchByName(string(dispatch))
	if err != nil {
		return nil, err
	}
	cl, err := serving.NewClusterWithDispatch(n, pol, func(int) (serving.Options, error) {
		return cfg.options()
	})
	if err != nil {
		return nil, err
	}
	return &ClusterSystem{cluster: cl}, nil
}

// Serve replays a trace across the cluster and returns the aggregate
// report. A round-robin cluster's replicas never observe one another,
// so Serve may drain them concurrently on GOMAXPROCS goroutines; the
// report is the same as a sequential replay's. Each replica gets its
// own serving state, and the Config (its Adapters included) is only
// read, so no replica's mutable state is shared with another.
func (c *ClusterSystem) Serve(trace Trace) (*Report, error) {
	return c.cluster.Run(trace)
}

// NewManagedCluster builds a tenant-aware (SLO-aware) cluster: n
// initial replicas of the configured system behind an admission stage
// (per-tenant queue caps, hopeless-deadline shedding), a
// deficit-weighted fair-share queue with deadline-aware ordering, and
// an optional autoscaler that grows and shrinks the fleet on the
// shared virtual timeline. Pass workload.DefaultTenantClasses-style
// TenantSpecs in sc.Tenants; reports carry per-tenant SLO attainment
// and a Jain fairness index.
func NewManagedCluster(cfg Config, n int, dispatch DispatchKind, sc SchedulingConfig) (*ClusterSystem, error) {
	cfg = cfg.withDefaults()
	pol, err := serving.DispatchByName(string(dispatch))
	if err != nil {
		return nil, err
	}
	cl, err := serving.NewManagedCluster(n, pol, sc, func(int) (serving.Options, error) {
		return cfg.options()
	})
	if err != nil {
		return nil, err
	}
	return &ClusterSystem{cluster: cl}, nil
}

// DefaultTenantClasses returns the three service classes of the
// multi-tenant experiment (realtime / interactive / batch) with their
// fair-share weights, burst credits and queue caps.
func DefaultTenantClasses() []TenantSpec { return workload.DefaultTenantClasses() }

// RetrievalWorkload synthesizes a visual-retrieval trace (Azure-like
// arrivals at rate req/s, adapter popularity skewed so the hottest
// adapter receives fraction skew of requests).
func RetrievalWorkload(rate float64, duration time.Duration, adapters int, skew float64, seed int64) Trace {
	return workload.GenRetrieval(workload.DefaultRetrieval(rate, duration, adapters, skew, seed))
}

// VideoWorkload synthesizes a video-analytics trace (streams chunks of
// 30 frames, one per second per stream) answered through vision task
// heads.
func VideoWorkload(streams int, duration time.Duration, adapters int, skew float64, seed int64) Trace {
	return workload.GenVideo(workload.DefaultVideo(streams, duration, adapters, skew, seed))
}

// Knowledge is one domain dataset to integrate, with its accuracy
// floor.
type Knowledge struct {
	Task        TaskType
	Domain      string
	Seed        int64
	RequiredAcc float64
}

// GeneratedAdapter is one output of adapter generation.
type GeneratedAdapter struct {
	Adapter    *Adapter
	Domains    []string
	Accuracies map[string]float64
}

// Generate runs the accuracy-aware knowledge-fusion algorithm (§4.2):
// it trains LoRA adapters over the given knowledge items, packing as
// many domains per adapter as the accuracy floors allow, and returns
// runtime adapter descriptors (with vision task heads where the task
// supports them) plus measured per-domain accuracies.
func Generate(model ModelConfig, items []Knowledge) ([]GeneratedAdapter, error) {
	if model.Layers == 0 {
		model = QwenVL7B()
	}
	base := train.NewBaseModel(model.Name, 24, 128, 7)
	ks := make([]train.Knowledge, len(items))
	allVision := len(items) > 0
	for i, it := range items {
		ds := train.GenDataset(it.Task, it.Domain, it.Seed)
		ks[i] = train.Knowledge{Dataset: ds, RequiredAcc: it.RequiredAcc}
		if !train.SupportsVisionHead(it.Task) {
			allVision = false
		}
	}
	res, err := train.Fuse(base, ks, train.FusionOptions{Rank: 8})
	if err != nil {
		return nil, err
	}
	out := make([]GeneratedAdapter, 0, len(res.Adapters))
	for i, a := range res.Adapters {
		head := train.LMHead
		if allVision {
			head = train.VisionHead
		}
		ra := &lora.Adapter{
			ID:      i,
			Name:    a.Name,
			Rank:    model.DefaultRank,
			Model:   model,
			Head:    head,
			Domains: append([]string(nil), a.Domains...),
		}
		acc := make(map[string]float64, len(a.Domains))
		for _, d := range a.Domains {
			acc[d] = res.Accuracies[d]
		}
		out = append(out, GeneratedAdapter{Adapter: ra, Domains: ra.Domains, Accuracies: acc})
	}
	return out, nil
}
