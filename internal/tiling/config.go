// Package tiling implements ATMM's offline machinery (§4.3.2 of the
// VaLoRA paper): enumeration of the CUTLASS-style tiling-configuration
// space under hardware constraints, the profile-based optimal tiling
// search (Algorithm 2), and the 128-bit-keyed hash table that maps
// input shapes to their optimal configuration at runtime.
package tiling

import (
	"valora/internal/simgpu"
)

// blockDims and warpDims span the "36 common thread block shapes × 4
// warp configurations" space the paper cites from the CUTLASS
// documentation, before hardware feasibility filtering.
var (
	blockM = []int{16, 32, 64, 128, 256}
	blockN = []int{16, 32, 64, 128, 256}
	blockK = []int{16, 32, 64}
	warpM  = []int{16, 32, 64}
	warpN  = []int{16, 32, 64}
	splitK = []int{1, 4, 16}
	stages = []int{2, 3}
)

// FullSpace enumerates every structurally valid configuration for the
// GPU, without the expert-knowledge pruning of Algorithm 2. This is
// the "50,000 configurations" end of the paper's search-space
// comparison (here smaller in absolute count, but pruning ratios are
// preserved by PrunedSpace).
func FullSpace(g *simgpu.GPU) []simgpu.TileConfig {
	var out []simgpu.TileConfig
	for _, bm := range blockM {
		for _, bn := range blockN {
			for _, bk := range blockK {
				for _, wm := range warpM {
					for _, wn := range warpN {
						for _, sk := range splitK {
							for _, st := range stages {
								cfg := simgpu.TileConfig{
									BM: bm, BK: bk, BN: bn,
									WM: wm, WK: bk, WN: wn,
									SplitK: sk, Stages: st,
								}
								if _, err := g.OccupancyOf(cfg); err != nil { // validates too
									continue
								}
								out = append(out, cfg)
							}
						}
					}
				}
			}
		}
	}
	return out
}

// PrunedSpace applies the expert-knowledge pruning of §4.3.2:
// warp tiles that leave a warp with a sliver of work are dropped,
// split-K is only kept for configurations that would otherwise
// under-fill the SMs at small M, and 3-stage pipelines are kept only
// for large tiles where the extra shared memory pays off. This is the
// "reduced up to 20×" space the search actually profiles.
func PrunedSpace(g *simgpu.GPU) []simgpu.TileConfig {
	return prune(FullSpace(g))
}

// prune filters a full space down to the pruned one.
func prune(full []simgpu.TileConfig) []simgpu.TileConfig {
	var out []simgpu.TileConfig
	for _, cfg := range full {
		warps := (cfg.BM / cfg.WM) * (cfg.BN / cfg.WN)
		if warps > 16 {
			continue // oversubscribed block: scheduling overhead dominates
		}
		if cfg.Stages == 3 && cfg.BM*cfg.BN < 64*64 {
			continue // deep pipeline on a tiny tile wastes shared memory
		}
		if cfg.SplitK > 1 && cfg.BM > 64 {
			continue // split-K targets small-M shapes; big BM defeats it
		}
		if cfg.SplitK == 16 && cfg.BK > 32 {
			continue
		}
		out = append(out, cfg)
	}
	return out
}

// DefaultConfig is a safe general-purpose configuration used when a
// shape misses the hash table (large enough to feed tensor cores,
// small enough to occupy SMs on mid-size shapes).
func DefaultConfig() simgpu.TileConfig {
	return simgpu.TileConfig{BM: 64, BK: 32, BN: 64, WM: 32, WK: 32, WN: 32, SplitK: 1, Stages: 2}
}
