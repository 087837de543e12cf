// Package bench contains one experiment driver per table and figure of
// the VaLoRA paper's evaluation (plus the motivation-section
// measurements and the ablations DESIGN.md calls out). Every driver
// returns a Table that renders to markdown/CSV; cmd/valora-bench runs
// them all and EXPERIMENTS.md records paper-vs-measured.
package bench

import (
	"fmt"
	"strings"
	"time"

	"valora/internal/simgpu"
)

// Table is one experiment's result grid.
type Table struct {
	ID    string // e.g. "fig14"
	Title string
	// Paper is the claim from the paper this table is compared
	// against.
	Paper   string
	Columns []string
	Rows    [][]string
	// Notes records observations about the measured-vs-paper match.
	Notes string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Markdown renders the table as GitHub-flavoured markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", strings.ToUpper(t.ID), t.Title)
	if t.Paper != "" {
		fmt.Fprintf(&b, "*Paper:* %s\n\n", t.Paper)
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(t.Columns, " | "))
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = "---"
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(sep, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(&b, "| %s |\n", strings.Join(row, " | "))
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "\n*Measured:* %s\n", t.Notes)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (quotes are not
// needed for the numeric/short cells the drivers emit).
func (t *Table) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", strings.Join(t.Columns, ","))
	for _, row := range t.Rows {
		fmt.Fprintf(&b, "%s\n", strings.Join(row, ","))
	}
	return b.String()
}

// Suite carries shared experiment configuration.
type Suite struct {
	GPU *simgpu.GPU
	// Quick shrinks traces and sweeps for use from unit tests; the
	// full-size runs back EXPERIMENTS.md.
	Quick bool
	Seed  int64
	// OutDir is where experiments that persist artifacts (the
	// BENCH_*.json perf trajectories) write; empty means the current
	// directory.
	OutDir string
	// Shards, when positive, is added to the shard sweeps of the
	// sweep-style experiments (million-requests, parallel-managed),
	// overrides the stress headline run's shard count, and makes every
	// other shard-aware experiment (Experiment.Sharded) replay its runs
	// through RunSharded and verify bit-identity against the sequential
	// report — the -shards flag of valora-bench.
	Shards int
}

// NewSuite builds a suite on an A100 with the default seed.
func NewSuite(quick bool) *Suite {
	return &Suite{GPU: simgpu.A100(), Quick: quick, Seed: 42}
}

// traceDuration picks the per-run trace length.
func (s *Suite) traceDuration() time.Duration {
	if s.Quick {
		return 20 * time.Second
	}
	return 60 * time.Second
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d)/float64(time.Millisecond))
}

func us(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d)/float64(time.Microsecond))
}

func pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }

func f2(f float64) string { return fmt.Sprintf("%.2f", f) }

// Experiment couples an ID with its driver and a one-line description
// (shown by valora-bench -list).
type Experiment struct {
	ID   string
	Desc string
	Run  func() (*Table, error)
}

// shardedExperiments are the experiment IDs that honor Suite.Shards:
// the sweep-style perf experiments add it to their shard axes, the
// rest replay their runs through RunSharded and verify the report is
// bit-identical to the sequential one. valora-bench -list flags them.
var shardedExperiments = map[string]bool{
	"cluster-dispatch": true,
	"million-requests": true,
	"multi-tenant":     true,
	"parallel-managed": true,
}

// Sharded reports whether the experiment honors the -shards flag.
func (e Experiment) Sharded() bool { return shardedExperiments[e.ID] }

// All lists every experiment in presentation order.
func (s *Suite) All() []Experiment {
	return []Experiment{
		{"fig03", "zero-shot LMM accuracy on vision tasks (motivation)", s.Fig03ZeroShot},
		{"fig04", "LoRA fine-tuning accuracy gain per task", s.Fig04LoRAGain},
		{"fig05", "knowledge-fusion capacity vs accuracy floors", s.Fig05FusionCapacity},
		{"fig10", "fusion algorithm walkthrough on one task mix", s.Fig10FusionWalkthrough},
		{"swap", "adapter host-device swap latency", s.SwapLatency},
		{"fig06", "unmerged-mode LoRA compute overhead", s.Fig06UnmergedOverhead},
		{"fig07", "naive merge/unmerge switch cost", s.Fig07SwitchCost},
		{"table1", "adaptive-tiling ATMM vs fixed tiles", s.Table1AdaptiveTiling},
		{"fig12", "tile-shape analysis across batch mixes", s.Fig12TileAnalysis},
		{"search", "offline tiling-search statistics", s.TilingSearchStats},
		{"fig14", "end-to-end avg token latency, 4 systems x 3 LMMs", s.Fig14EndToEnd},
		{"fig15", "serving accuracy parity across systems", s.Fig15Accuracy},
		{"fig16", "LM head vs vision task head latency", s.Fig16TaskHead},
		{"fig17", "batching operator latency comparison", s.Fig17OperatorLatency},
		{"fig18", "operator latency stability across shapes", s.Fig18OperatorStability},
		{"fig19", "scheduling policies under varying skew", s.Fig19Scheduler},
		{"fig20", "deLoRA mixture-mode contribution", s.Fig20MixtureMode},
		{"fig21", "swift switcher vs dLoRA switcher", s.Fig21SwiftSwitch},
		{"fig22", "end-to-end impact of request skewness", s.Fig22SkewE2E},
		{"fig23", "scaling the registered adapter count", s.Fig23AdapterCount},
		{"table3", "throughput scaling across 1/2/4 GPUs", s.Table3MultiGPU},
		{"cluster-dispatch", "cluster dispatch policies on the shared timeline", s.ClusterDispatch},
		{"million-requests", "simulator stress: 1M-request replay wall-clock", s.MillionRequests},
		{"multi-tenant", "fair-share vs FIFO SLO attainment, 3 tenants + autoscaler", s.MultiTenant},
		{"parallel-managed", "bounded-lookahead sharding on the saturated multi-tenant trace", s.ParallelManaged},
		{"adapter-cold-start", "tiered adapter registry: prefetch + residency quotas vs cold fetches", s.AdapterColdStart},
		{"fleet-cold-start", "chunk-level dedup + replicated links on a family-structured adapter fleet", s.FleetColdStart},
		{"preemption-tail", "iteration-level preemption: realtime p99 with vs without displacement", s.PreemptionTail},
		{"observe-calibrate", "cost-model calibration round-trip from per-request traces", s.ObserveCalibrate},
		{"fig24", "prefix-cache ablation on multi-round retrieval", s.Fig24PrefixCache},
		{"switcher", "switcher microbenchmark", s.SwitcherMicro},
		{"ablation-tiling", "ATMM with static tiling", s.AblationStaticTiling},
		{"ablation-mixture", "VaLoRA without the mixture mode", s.AblationNoMixture},
		{"ablation-switch", "VaLoRA with the slow switcher", s.AblationSlowSwitch},
		{"ablation-memory", "unified vs copy-based adapter memory", s.AblationMemory},
	}
}
