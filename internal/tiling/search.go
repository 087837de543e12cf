package tiling

import (
	"fmt"
	"time"

	"valora/internal/simgpu"
)

// SearchSpec describes the shape space Algorithm 2 profiles for one
// model on one GPU: the model's hidden dimensions (the K of shrink
// GEMMs and N of expand GEMMs), the LoRA ranks in use, and the maximum
// token-batch size.
type SearchSpec struct {
	// HiddenDims are the model dimensions (e.g. 4096 for Qwen-VL-7B,
	// 5120 for LLaVA-1.5-13B).
	HiddenDims []int
	// Ranks are the LoRA ranks to profile (the paper fixes 64; the
	// search supports several).
	Ranks []int
	// MaxTokens bounds the M dimension (the model's maximum context,
	// 2048 for Qwen-VL).
	MaxTokens int
	// Classes lists the core classes to profile; defaults to
	// tensor cores only.
	Classes []simgpu.CoreClass
}

// DefaultSearchSpec profiles the shapes VaLoRA meets when serving a
// model with hidden dimension dim and LoRA rank 64.
func DefaultSearchSpec(dim, maxTokens int) SearchSpec {
	return SearchSpec{
		HiddenDims: []int{dim},
		Ranks:      []int{16, 32, 64, 128},
		MaxTokens:  maxTokens,
		Classes:    []simgpu.CoreClass{simgpu.TensorCore},
	}
}

// Stats summarizes one search run (the paper quotes 50,000 → ~3,000
// configurations and <30 min on hardware; the simulated profile runs
// in milliseconds).
type Stats struct {
	FullConfigs   int
	PrunedConfigs int
	Shapes        int
	Profiled      int // shape×config evaluations executed
	Elapsed       time.Duration
}

func (s Stats) String() string {
	return fmt.Sprintf("search: %d shapes, %d/%d configs after pruning, %d profiles, %v",
		s.Shapes, s.PrunedConfigs, s.FullConfigs, s.Profiled, s.Elapsed)
}

// mBuckets enumerates the profiled M grid: powers of two from 16 to
// maxTokens (runtime M is bucketed the same way by Table.Lookup).
func mBuckets(maxTokens int) []int {
	var out []int
	for m := 16; m <= maxTokens; m <<= 1 {
		out = append(out, m)
	}
	if len(out) == 0 || out[len(out)-1] < maxTokens {
		out = append(out, BucketM(maxTokens))
	}
	return out
}

// shapes enumerates the GEMM shapes of the LoRA data path:
// shrink (M×dim)·(dim×rank), expand (M×rank)·(rank×dim), and the
// ΔW path (dim×rank)·(rank×dim) used by the mode switcher.
func (spec SearchSpec) shapes() []simgpu.Shape {
	seen := make(map[simgpu.Shape]bool)
	var out []simgpu.Shape
	add := func(s simgpu.Shape) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for _, dim := range spec.HiddenDims {
		for _, r := range spec.Ranks {
			for _, m := range mBuckets(spec.MaxTokens) {
				add(simgpu.Shape{M: m, K: dim, N: r}) // shrink
				add(simgpu.Shape{M: m, K: r, N: dim}) // expand
			}
			add(simgpu.Shape{M: dim, K: r, N: dim}) // ΔW = B·A for the switcher
		}
	}
	return out
}

// Search runs the profile-based optimal tiling search (Algorithm 2):
// it evaluates every pruned configuration for every shape in the spec
// on the GPU model (the simulated analogue of running the CUTLASS
// profiler), records the fastest configuration per shape in the hash
// table, and reports search statistics.
func Search(g *simgpu.GPU, spec SearchSpec) (*Table, Stats, error) {
	start := time.Now()
	if len(spec.Classes) == 0 {
		spec.Classes = []simgpu.CoreClass{simgpu.TensorCore}
	}
	full := FullSpace(g)
	pruned := prune(full)
	table := NewTable()
	stats := Stats{FullConfigs: len(full), PrunedConfigs: len(pruned)}
	// Compile each pruned configuration once per core class: profiling
	// a shape then pays only the shape-dependent cost terms.
	kernels := make([][]simgpu.Kernel, len(spec.Classes))
	for i, class := range spec.Classes {
		for _, cfg := range pruned {
			if k, err := g.Compile(cfg, class); err == nil {
				kernels[i] = append(kernels[i], k)
			}
		}
	}
	for _, shape := range spec.shapes() {
		for i, class := range spec.Classes {
			stats.Shapes++
			var (
				best     simgpu.TileConfig
				bestTime time.Duration
				found    bool
			)
			for j := range kernels[i] {
				k := &kernels[i][j]
				t, err := k.GEMMTime(shape)
				if err != nil {
					continue // infeasible for this shape/hardware
				}
				stats.Profiled++
				if !found || t < bestTime {
					best, bestTime, found = k.Config(), t, true
				}
			}
			if !found {
				return nil, stats, fmt.Errorf("tiling: no feasible config for shape %v", shape)
			}
			table.Put(Entry{Shape: shape, Class: class, Config: best, Time: bestTime.Seconds()})
		}
	}
	stats.Elapsed = time.Since(start)
	return table, stats, nil
}
