package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"valora/internal/lmm"
	"valora/internal/serving"
	"valora/internal/workload"
)

// StressRecord is one entry of the BENCH_serving.json trajectory: a
// wall-clock measurement of the simulator itself on the
// million-requests stress scenario. The file accumulates one record
// per run so the perf trajectory of the serving core is visible across
// revisions.
type StressRecord struct {
	Experiment string    `json:"experiment"`
	Timestamp  time.Time `json:"timestamp"`
	Requests   int       `json:"requests"`
	Instances  int       `json:"instances"`
	Dispatch   string    `json:"dispatch"`
	Quick      bool      `json:"quick"`

	// Commit is the VCS revision the binary was built from ("+dirty"
	// when the tree had uncommitted changes; empty under a plain
	// `go run`, which stamps no VCS data) and CPU the host's CPU
	// model: wall-clock numbers compare only across equal hardware.
	Commit string `json:"commit,omitempty"`
	CPU    string `json:"cpu,omitempty"`

	// Shards is the partitioned drain's worker count: Run's
	// runtime.GOMAXPROCS(0). Records from before Run became the only
	// replay entry point carry the explicit count of the retired shard
	// sweep (1 drained the instances one after another), and older
	// ones 0 for the sequential Timeline engine. Repeats is the number
	// of identical replays the wall-clock numbers are the median of;
	// GOMAXPROCS the Go scheduler's processor count during the run —
	// wall-clock numbers are only comparable at equal parallelism.
	Shards     int `json:"shards,omitempty"`
	Repeats    int `json:"repeats,omitempty"`
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`

	// WallSeconds is the real time the replay took (median across
	// Repeats, whose fastest and slowest are WallMinSeconds and
	// WallMaxSeconds); SimRPS is requests replayed per wall-clock
	// second (the simulator's own throughput, the number the engine
	// rework moves). SpeedupVsSeq, a sequential-engine wall time over
	// this configuration's on the same trace, appears only on records
	// of the retired parallel-managed experiment; the field keeps them
	// intact when the trajectory is rewritten.
	WallSeconds    float64 `json:"wall_seconds"`
	WallMinSeconds float64 `json:"wall_min_seconds,omitempty"`
	WallMaxSeconds float64 `json:"wall_max_seconds,omitempty"`
	SimRPS         float64 `json:"sim_rps"`
	SpeedupVsSeq   float64 `json:"speedup_vs_seq,omitempty"`

	// Virtual-time serving quality of the replay.
	Completed    int     `json:"completed"`
	Rejected     int     `json:"rejected"`
	VirtualRPS   float64 `json:"virtual_rps"`
	VirtualP50MS float64 `json:"virtual_p50_ms"`
	VirtualP99MS float64 `json:"virtual_p99_ms"`

	// Multi-tenant experiment fields (absent on stress records).
	Mode       string             `json:"mode,omitempty"`
	TenantSLO  map[string]float64 `json:"tenant_slo,omitempty"`
	Jain       float64            `json:"jain,omitempty"`
	Shed       int                `json:"shed,omitempty"`
	ScaleUps   int                `json:"scale_ups,omitempty"`
	ScaleDowns int                `json:"scale_downs,omitempty"`

	// Preemption experiment fields (preemption-tail records only).
	TenantP99MS     map[string]float64 `json:"tenant_p99_ms,omitempty"`
	Preemptions     int                `json:"preemptions,omitempty"`
	RecomputeTokens int                `json:"recompute_tokens,omitempty"`

	// Tiered adapter-distribution fields (adapter-cold-start records
	// only; see internal/registry).
	ColdStarts      int     `json:"cold_starts,omitempty"`
	ColdTTFTP50MS   float64 `json:"cold_ttft_p50_ms,omitempty"`
	ColdTTFTP99MS   float64 `json:"cold_ttft_p99_ms,omitempty"`
	TTFTP99MS       float64 `json:"ttft_p99_ms,omitempty"`
	HostHitRate     float64 `json:"host_hit_rate,omitempty"`
	GPUTierHitRate  float64 `json:"gpu_tier_hit_rate,omitempty"`
	RemoteFetches   int     `json:"remote_fetches,omitempty"`
	PrefetchFetches int     `json:"prefetch_fetches,omitempty"`
	FetchBytes      int64   `json:"fetch_bytes,omitempty"`
	SwapBytes       int64   `json:"swap_bytes,omitempty"`

	// Chunk-level distribution fields (fleet-cold-start records only;
	// see internal/registry).
	ChunkFetches     int     `json:"chunk_fetches,omitempty"`
	DedupHits        int     `json:"dedup_hits,omitempty"`
	DedupedBytes     int64   `json:"deduped_bytes,omitempty"`
	ChunkEvictions   int     `json:"chunk_evictions,omitempty"`
	FetchCostBaseMS  float64 `json:"fetch_cost_base_ms,omitempty"`
	FetchCostPerMBMS float64 `json:"fetch_cost_per_mb_ms,omitempty"`

	// Dispatch-policy fields (cluster-dispatch records only).
	AvgTokenLatencyMS float64 `json:"avg_token_latency_ms,omitempty"`
	Switches          int     `json:"switches,omitempty"`
	SwapIns           int     `json:"swap_ins,omitempty"`
	SwapStallMS       float64 `json:"swap_stall_ms,omitempty"`

	// Calibration fields (observe-calibrate records only): each
	// scorecard metric's relative error between the re-predicted and
	// the observed value, and the worst of them.
	CalibRelErr      map[string]float64 `json:"calib_rel_err,omitempty"`
	CalibWorstRelErr float64            `json:"calib_worst_rel_err,omitempty"`
}

// BenchServingFile is the trajectory file the stress experiment
// appends to, relative to Suite.OutDir.
const BenchServingFile = "BENCH_serving.json"

// stressSize reports the replay size: one million requests, shrunk in
// quick (smoke) mode so CI and unit tests stay fast.
func (s *Suite) stressSize() int {
	if s.Quick {
		return 50_000
	}
	return 1_000_000
}

// stressRepeats is the number of identical replays each wall-clock
// measurement is the median of. Historically single-shot records on
// identical code swung 156k→374k sim_rps (scheduler/GC noise); the
// median of a handful of runs is stable enough to carry perf claims.
func (s *Suite) stressRepeats() int {
	if s.Quick {
		return 3
	}
	return 5
}

// headlineRequests/headlineInstances size the 10M-request headline run
// (full mode only): the fleet-scale point the partitioned drain exists
// for.
const (
	headlineRequests  = 10_000_000
	headlineInstances = 8
	headlineRepeats   = 3
)

// wallSpread is the fastest, median and slowest wall time over a
// measurement's repeats.
type wallSpread struct{ min, med, max time.Duration }

func spreadOf(walls []time.Duration) wallSpread {
	sort.Slice(walls, func(i, j int) bool { return walls[i] < walls[j] })
	return wallSpread{walls[0], walls[len(walls)/2], walls[len(walls)-1]}
}

// runStress replays trace on a fresh round-robin cluster of instances
// repeats times — runtime state reset between replays — and returns
// the (identical) report plus the wall-time spread. Every repeat must
// produce a bit-identical report: virtual results are deterministic,
// only the wall clock is allowed to move.
func (s *Suite) runStress(trace workload.Trace, instances, repeats int) (*serving.Report, wallSpread, error) {
	model := lmm.QwenVL7B()
	build := func(int) (serving.Options, error) {
		return serving.SystemOptions(serving.SystemVaLoRA, s.GPU, model)
	}

	var rep *serving.Report
	walls := make([]time.Duration, 0, repeats)
	for r := 0; r < repeats; r++ {
		trace.ResetRuntime()
		cl, err := serving.NewClusterWithDispatch(instances, serving.NewRoundRobin(), build)
		if err != nil {
			return nil, wallSpread{}, err
		}
		start := time.Now()
		got, err := cl.Run(trace)
		if err != nil {
			return nil, wallSpread{}, err
		}
		walls = append(walls, time.Since(start))
		if got.Completed+got.Rejected != len(trace) {
			return nil, wallSpread{}, fmt.Errorf("bench: stress replay lost requests: %d completed + %d rejected of %d",
				got.Completed, got.Rejected, len(trace))
		}
		if rep == nil {
			rep = got
		} else if !reflect.DeepEqual(rep, got) {
			return nil, wallSpread{}, errors.New("bench: stress replay diverged across repeats: the engine is not deterministic")
		}
	}
	return rep, spreadOf(walls), nil
}

// MillionRequests is the simulator's own perf benchmark: it replays
// the stress trace with Run, which drains the round-robin fleet's
// instances in parallel at runtime.GOMAXPROCS(0) workers, and reports
// median-of-N wall-clock throughput. In full mode it adds the
// 10M-request headline run on a larger fleet. Every size appends one
// record to BENCH_serving.json.
func (s *Suite) MillionRequests() (*Table, error) {
	const instances = 4
	n := s.stressSize()
	repeats := s.stressRepeats()
	workers := runtime.GOMAXPROCS(0)

	t := &Table{
		ID:    "million-requests",
		Title: fmt.Sprintf("Simulator stress: %d requests across %d instances (median of %d)", n, instances, repeats),
		Paper: "beyond-paper scale target: replay ≥1M requests in seconds of wall time so §6-style skew/rate sweeps stay tractable",
		Columns: []string{"requests", "instances", "workers", "wall med (s)", "sim throughput (req/s)",
			"virtual req/s", "virtual p50 (ms)", "virtual p99 (ms)", "completed", "rejected"},
	}

	// offered is the trace's arrival rate; served lists each size's
	// virtual req/s, and backlog holds while every one is below it.
	var offered float64
	var served []string
	backlog := true

	// measure generates and replays one size; the trace is released
	// when it returns, before the next size allocates its own.
	measure := func(n, instances, repeats int) error {
		cfg := workload.DefaultStress(n, s.Seed)
		offered = cfg.Rate
		trace := workload.GenStress(cfg)
		rep, wall, err := s.runStress(trace, instances, repeats)
		if err != nil {
			return err
		}
		rec := s.newRecord("million-requests", rep, n, instances, "round-robin", wall.med)
		rec.Shards = workers
		rec.Repeats = repeats
		rec.WallMinSeconds = wall.min.Seconds()
		rec.WallMaxSeconds = wall.max.Seconds()
		if err := s.appendStressRecord(rec); err != nil {
			return err
		}
		t.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", instances), fmt.Sprintf("%d", workers),
			f2(rec.WallSeconds), fmt.Sprintf("%.0f", rec.SimRPS), f2(rec.VirtualRPS),
			f2(rec.VirtualP50MS), f2(rec.VirtualP99MS),
			fmt.Sprintf("%d", rep.Completed), fmt.Sprintf("%d", rep.Rejected))
		served = append(served, f2(rec.VirtualRPS))
		backlog = backlog && rec.VirtualRPS < offered
		return nil
	}
	if err := measure(n, instances, repeats); err != nil {
		return nil, err
	}
	if !s.Quick {
		if err := measure(headlineRequests, headlineInstances, headlineRepeats); err != nil {
			return nil, err
		}
	}

	load := fmt.Sprintf("the trace offers %.0f req/s and the fleet served %s virtual req/s", offered, strings.Join(served, " and "))
	if backlog {
		load += ", so it offers more than the fleet sustains: the virtual p50/p99 cells measure a growing backlog, not serving latency, and the experiment is about the simulator's wall-clock throughput"
	}
	t.Notes = fmt.Sprintf("%s; appended to %s; wall times are medians of identical replays (virtual results verified bit-identical across repeats); workers is GOMAXPROCS, the partitioned drain's worker count.",
		load, BenchServingFile)
	return t, nil
}

// newRecord fills the fields every trajectory record shares: one
// replay of n requests on instances instances that took wall and
// produced rep. appendStressRecord stamps the provenance fields.
func (s *Suite) newRecord(experiment string, rep *serving.Report, n, instances int, dispatch string, wall time.Duration) StressRecord {
	return StressRecord{
		Experiment:   experiment,
		Requests:     n,
		Instances:    instances,
		Dispatch:     dispatch,
		Quick:        s.Quick,
		WallSeconds:  wall.Seconds(),
		SimRPS:       float64(n) / wall.Seconds(),
		Completed:    rep.Completed,
		Rejected:     rep.Rejected,
		VirtualRPS:   rep.Throughput,
		VirtualP50MS: rep.E2E.P50,
		VirtualP99MS: rep.E2E.P99,
	}
}

// appendStressRecord appends rec to the BENCH_serving.json trajectory
// (creating it on first run) in Suite.OutDir. The trajectory is the
// repo's perf evidence chain, so nothing about it fails silently: an
// unreadable or unparseable existing file and an unwritable target
// are all hard errors (surfaced as a non-zero valora-bench exit)
// rather than a quiet record drop or a quietly restarted history.
func (s *Suite) appendStressRecord(rec StressRecord) error {
	rec.Timestamp = time.Now().UTC()
	rec.Commit, rec.CPU, rec.GOMAXPROCS = buildCommit(), cpuModel(), runtime.GOMAXPROCS(0)
	path := s.TrajectoryPath()
	var records []StressRecord
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		// First run: start a fresh trajectory.
	case err != nil:
		return fmt.Errorf("bench: reading trajectory %s: %w (refusing to overwrite records that could not be read)", path, err)
	default:
		if uerr := json.Unmarshal(data, &records); uerr != nil {
			return fmt.Errorf("bench: trajectory %s is not valid JSON: %w (move the file aside to start a fresh trajectory)", path, uerr)
		}
	}
	records = append(records, rec)
	out, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: writing trajectory %s: %w (this run's record was not persisted)", path, err)
	}
	return nil
}

// TrajectoryPath reports where the BENCH_serving.json trajectory will
// be read and written under the suite's current OutDir ("" = current
// directory). The CLI prints it so there is never a question of which
// file a run appended to.
func (s *Suite) TrajectoryPath() string {
	dir := s.OutDir
	if dir == "" {
		dir = "."
	}
	return filepath.Join(dir, BenchServingFile)
}

// buildCommit reports the VCS revision the running binary was built
// from, suffixed "+dirty" for a modified tree, or "" when the build
// carries no VCS stamp.
func buildCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	var rev, dirty string
	for _, kv := range info.Settings {
		switch kv.Key {
		case "vcs.revision":
			rev = kv.Value
		case "vcs.modified":
			if kv.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev == "" {
		return ""
	}
	return rev + dirty
}

// cpuModel reports the first "model name" of /proc/cpuinfo, or "" where
// the host has no such file.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
