package bench

import (
	"fmt"
	"math/rand"
	"time"

	"valora/internal/atmm"
	"valora/internal/lmm"
	"valora/internal/metrics"
	"valora/internal/simgpu"
	"valora/internal/tiling"
)

// table1Inputs are the two GEMM shapes of the paper's Table 1.
func table1Inputs() []simgpu.Shape {
	return []simgpu.Shape{
		{M: 256, K: 4096, N: 32},
		{M: 8192, K: 4096, N: 128},
	}
}

// table1Configs are the static configurations Table 1 compares
// (Punica's, plus the two hand-picked configs ① and ②).
func table1Configs() map[string]simgpu.TileConfig {
	return map[string]simgpu.TileConfig{
		"Punica (16,64,64|16,16,64)":  {BM: 16, BK: 64, BN: 64, WM: 16, WK: 16, WN: 64, SplitK: 1, Stages: 2},
		"Config1 (64,32,32|32,32,32)": {BM: 64, BK: 32, BN: 32, WM: 32, WK: 32, WN: 32, SplitK: 4, Stages: 2},
		"Config2 (64,64,64|32,64,64)": {BM: 64, BK: 64, BN: 64, WM: 32, WK: 64, WN: 64, SplitK: 1, Stages: 2},
	}
}

// Table1AdaptiveTiling reproduces Table 1: the same static tiling
// configuration wins on one shape and loses on the other, while the
// adaptive lookup matches or beats every static choice on both.
func (s *Suite) Table1AdaptiveTiling() (*Table, error) {
	t := &Table{
		ID:      "table1",
		Title:   "Static tiling configurations vs ATMM's adaptive choice",
		Paper:   "Punica's static tile loses up to 1.9x to a shape-matched config; no static config wins both shapes",
		Columns: []string{"configuration", "input1 (256x4096,4096x32) us", "input2 (8192x4096,4096x128) us"},
	}
	names := []string{"Punica (16,64,64|16,16,64)", "Config1 (64,32,32|32,32,32)", "Config2 (64,64,64|32,64,64)"}
	cfgs := table1Configs()
	for _, name := range names {
		row := []string{name}
		for _, shape := range table1Inputs() {
			d, err := s.GPU.GEMMTime(shape, cfgs[name], simgpu.TensorCore)
			if err != nil {
				return nil, err
			}
			row = append(row, us(d))
		}
		t.AddRow(row...)
	}
	table, _, err := tiling.Search(s.GPU, tiling.DefaultSearchSpec(4096, 8192))
	if err != nil {
		return nil, err
	}
	row := []string{"ATMM (adaptive)"}
	for _, shape := range table1Inputs() {
		cfg, _ := table.Lookup(shape, simgpu.TensorCore)
		d, err := s.GPU.GEMMTime(shape, cfg, simgpu.TensorCore)
		if err != nil {
			return nil, err
		}
		row = append(row, us(d))
	}
	t.AddRow(row...)
	t.Notes = "each static config wins one shape and loses the other; the adaptive lookup is fastest (or tied) on both, matching Table 1's conclusion."
	return t, nil
}

// Fig12TileAnalysis reproduces Fig. 12's accounting: tile counts,
// SM usage and memory traffic under the paired configurations.
func (s *Suite) Fig12TileAnalysis() (*Table, error) {
	t := &Table{
		ID:      "fig12",
		Title:   "Tile decomposition and memory traffic of Table 1's configurations",
		Paper:   "small tiles => more tiles and more global-memory traffic; large tiles => too few blocks, under-using the 108 SMs",
		Columns: []string{"shape", "config", "thread blocks", "SMs used", "global MB", "staged MB", "padding"},
	}
	cfgs := table1Configs()
	for _, shape := range table1Inputs() {
		for _, name := range []string{"Punica (16,64,64|16,16,64)", "Config2 (64,64,64|32,64,64)"} {
			a, err := s.GPU.AnalyzeTiling(shape, cfgs[name])
			if err != nil {
				return nil, err
			}
			t.AddRow(shape.String(), name,
				fmt.Sprintf("%d", a.ThreadBlocks),
				fmt.Sprintf("%d/%d", a.SMsUsed, a.SMsTotal),
				fmt.Sprintf("%.1f", float64(a.GlobalBytes)/(1<<20)),
				fmt.Sprintf("%.1f", float64(a.SharedBytes)/(1<<20)),
				pct(a.PaddingFrac))
		}
	}
	t.Notes = "under the heavy input the small Punica tile stages ~2x the bytes of Config2; under the light input the large tile leaves most SMs idle — the two failure modes of Fig. 12."
	return t, nil
}

// TilingSearchStats reproduces §4.3.2's search-space accounting: the
// expert-knowledge pruning and the resulting hash table.
func (s *Suite) TilingSearchStats() (*Table, error) {
	model := lmm.QwenVL7B()
	table, stats, err := tiling.Search(s.GPU, tiling.DefaultSearchSpec(model.Dim, model.MaxContext))
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "search",
		Title:   "Profile-based optimal tiling search (Algorithm 2)",
		Paper:   "expert pruning cuts the space up to 20x (50,000 -> ~3,000 for Qwen-VL on A100); the search completes offline in <30 min on hardware",
		Columns: []string{"quantity", "value"},
	}
	t.AddRow("full configuration space", fmt.Sprintf("%d", stats.FullConfigs))
	t.AddRow("after expert pruning", fmt.Sprintf("%d", stats.PrunedConfigs))
	t.AddRow("pruning factor", f2(float64(stats.FullConfigs)/float64(stats.PrunedConfigs)))
	t.AddRow("profiled shapes", fmt.Sprintf("%d", stats.Shapes))
	t.AddRow("shape x config profiles", fmt.Sprintf("%d", stats.Profiled))
	t.AddRow("hash table entries", fmt.Sprintf("%d", table.Len()))
	t.AddRow("search wall time", stats.Elapsed.Round(time.Millisecond).String())
	t.Notes = "the simulated profiler replaces CUTLASS Profiler runs, so the search finishes in milliseconds; the pruning ratio and table construction follow Algorithm 2."
	return t, nil
}

// loraBatchOf builds a heterogeneous LoRA batch of the given total
// token count spread over adapters.
func loraBatchOf(model lmm.Config, tokens, adapters, rank int) atmm.Batch {
	per := tokens / adapters
	if per < 1 {
		per = 1
	}
	b := atmm.Batch{Dim: model.Dim, Projections: model.LoRAProjections}
	for i := 0; i < adapters; i++ {
		b.Groups = append(b.Groups, atmm.Group{AdapterID: i, Tokens: per, Rank: rank})
	}
	return b
}

// operators builds the four compared operators.
func (s *Suite) operators() (map[string]atmm.Operator, []string, error) {
	a, err := atmm.NewATMM(s.GPU, 4096, 8192)
	if err != nil {
		return nil, nil, err
	}
	pu, sl, dl := atmm.NewBaselines(s.GPU)
	ops := map[string]atmm.Operator{
		"ATMM": a, "S-LoRA": sl, "Punica": pu, "dLoRA": dl,
	}
	return ops, []string{"ATMM", "S-LoRA", "Punica", "dLoRA"}, nil
}

// Fig17OperatorLatency reproduces Fig. 17: per-layer LoRA batching
// latency across token batch sizes for the four operators.
func (s *Suite) Fig17OperatorLatency() (*Table, error) {
	ops, order, err := s.operators()
	if err != nil {
		return nil, err
	}
	model := lmm.QwenVL7B()
	sizes := []int{16, 64, 256, 1024, 4096, 8192}
	if s.Quick {
		sizes = []int{16, 256, 4096}
	}
	t := &Table{
		ID:      "fig17",
		Title:   "Per-layer operator latency across token batch sizes (us)",
		Paper:   "ATMM lowest everywhere: 2.7x vs S-LoRA, 2.3x vs Punica, 3.4x vs dLoRA on average; comparable to S-LoRA at decode sizes",
		Columns: append([]string{"tokens"}, order...),
	}
	speedups := make(map[string]float64)
	for _, tokens := range sizes {
		b := loraBatchOf(model, tokens, 4, model.DefaultRank)
		row := []string{fmt.Sprintf("%d", tokens)}
		var atmmTime time.Duration
		times := make(map[string]time.Duration)
		for _, name := range order {
			d, err := ops[name].LayerTime(b)
			if err != nil {
				return nil, err
			}
			times[name] = d
			if name == "ATMM" {
				atmmTime = d
			}
			row = append(row, us(d))
		}
		t.AddRow(row...)
		for _, name := range order[1:] {
			speedups[name] += float64(times[name]) / float64(atmmTime)
		}
	}
	t.Notes = fmt.Sprintf("mean speedup of ATMM: %.1fx vs S-LoRA, %.1fx vs Punica, %.1fx vs dLoRA.",
		speedups["S-LoRA"]/float64(len(sizes)), speedups["Punica"]/float64(len(sizes)), speedups["dLoRA"]/float64(len(sizes)))
	return t, nil
}

// Fig18OperatorStability reproduces Fig. 18: latency distribution
// (mean/p90/p95) of each operator over randomized heterogeneous
// batches — ATMM is both fastest and most stable.
func (s *Suite) Fig18OperatorStability() (*Table, error) {
	ops, order, err := s.operators()
	if err != nil {
		return nil, err
	}
	model := lmm.QwenVL7B()
	rng := rand.New(rand.NewSource(s.Seed))
	rounds := 200
	if s.Quick {
		rounds = 60
	}
	batches := make([]atmm.Batch, rounds)
	ranks := []int{16, 32, 64, 128}
	for i := range batches {
		n := 1 + rng.Intn(6)
		b := atmm.Batch{Dim: model.Dim, Projections: model.LoRAProjections}
		for a := 0; a < n; a++ {
			b.Groups = append(b.Groups, atmm.Group{
				AdapterID: a,
				Tokens:    1 << (rng.Intn(10) + 1), // 2..1024 tokens
				Rank:      ranks[rng.Intn(len(ranks))],
			})
		}
		batches[i] = b
	}
	t := &Table{
		ID:      "fig18",
		Title:   "Operator latency distribution over randomized batches (us)",
		Paper:   "ATMM reduces latency fluctuation ~3x vs S-LoRA and ~2x vs Punica/dLoRA",
		Columns: []string{"operator", "mean", "p90", "p95", "fluctuation (p95-mean)"},
	}
	for _, name := range order {
		st := metrics.NewStream()
		for _, b := range batches {
			d, err := ops[name].LayerTime(b)
			if err != nil {
				return nil, err
			}
			st.Add(float64(d) / float64(time.Microsecond))
		}
		t.AddRow(name, f2(st.Mean()), f2(st.Percentile(90)), f2(st.Percentile(95)),
			f2(st.Percentile(95)-st.Mean()))
	}
	t.Notes = "ATMM has the lowest mean and the tightest p95/mean ratio: adapting the tile to the drawn shape removes the outliers static configs hit."
	return t, nil
}

// AblationStaticTiling isolates the adaptive-tiling design choice: the
// identical fused execution path with the hash table emptied (every
// shape served by the fallback config).
func (s *Suite) AblationStaticTiling() (*Table, error) {
	adaptive, err := atmm.NewATMM(s.GPU, 4096, 8192)
	if err != nil {
		return nil, err
	}
	static := atmm.NewStaticATMM(s.GPU)
	model := lmm.QwenVL7B()
	sizes := []int{16, 256, 1024, 8192}
	if s.Quick {
		sizes = []int{16, 1024}
	}
	t := &Table{
		ID:      "ablation-tiling",
		Title:   "Ablation: adaptive vs static tiling (same fused kernel path, us)",
		Paper:   "design-choice ablation (README, Experiments): the hash-table lookup is what makes ATMM win at both extremes",
		Columns: []string{"tokens", "adaptive", "static fallback", "penalty"},
	}
	for _, tokens := range sizes {
		b := loraBatchOf(model, tokens, 4, model.DefaultRank)
		da, err := adaptive.LayerTime(b)
		if err != nil {
			return nil, err
		}
		ds, err := static.LayerTime(b)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", tokens), us(da), us(ds),
			fmt.Sprintf("%.2fx", float64(ds)/float64(da)))
	}
	t.Notes = "the static fallback pays most at the extremes of the shape range, where the one-size tile either starves SMs or floods memory."
	return t, nil
}
