package simgpu

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Shape describes one GEMM C[M×N] = A[M×K] · B[K×N].
type Shape struct {
	M, K, N int
}

func (s Shape) String() string { return fmt.Sprintf("(%dx%d,%dx%d)", s.M, s.K, s.K, s.N) }

// FLOPs reports the multiply-add count (2·M·N·K) of the un-padded
// problem.
func (s Shape) FLOPs() float64 { return 2 * float64(s.M) * float64(s.N) * float64(s.K) }

// TileConfig is a CUTLASS-style tiling configuration:
// thread-block tile (BM×BK)·(BK×BN), warp tile (WM×WK)·(WK×WN),
// split-K factor and pipeline stage count (2 = classic double
// buffering, as ATMM uses).
type TileConfig struct {
	BM, BK, BN int
	WM, WK, WN int
	SplitK     int
	Stages     int
}

func (c TileConfig) String() string {
	return fmt.Sprintf("(%d,%d,%d|%d,%d,%d|k%d,s%d)",
		c.BM, c.BK, c.BN, c.WM, c.WK, c.WN, c.SplitK, c.Stages)
}

// ErrInfeasible reports a tiling configuration that cannot run on the
// GPU (e.g. the double-buffered tiles exceed per-SM shared memory).
var ErrInfeasible = errors.New("simgpu: infeasible tiling configuration")

const (
	elemBytes  = 2 // FP16 operands
	accumBytes = 4 // FP32 accumulators / split-K partials
	issuePerK  = 60 * time.Nanosecond
	// hidingWarps is the warp-level parallelism per SM at which DRAM
	// latency is considered fully hidden by the software pipeline.
	hidingWarps = 8.0
)

// Validate checks structural constraints of the configuration
// (CUTLASS-documented limits the paper's search space also obeys:
// every dimension ≥16 and a power of two, warp tiles dividing block
// tiles).
func (c TileConfig) Validate() error {
	dims := []int{c.BM, c.BK, c.BN, c.WM, c.WK, c.WN}
	for _, d := range dims {
		if d < 16 || d&(d-1) != 0 {
			return fmt.Errorf("%w: tile dim %d must be a power of two >= 16", ErrInfeasible, d)
		}
	}
	if c.BM%c.WM != 0 || c.BN%c.WN != 0 || c.BK%c.WK != 0 {
		return fmt.Errorf("%w: warp tile must divide block tile", ErrInfeasible)
	}
	if c.SplitK < 1 {
		return fmt.Errorf("%w: split-K must be >= 1", ErrInfeasible)
	}
	if c.Stages < 1 {
		return fmt.Errorf("%w: stages must be >= 1", ErrInfeasible)
	}
	return nil
}

// warpsPerBlock reports the number of warps launched per thread block.
func (c TileConfig) warpsPerBlock() int {
	return (c.BM / c.WM) * (c.BN / c.WN)
}

// sharedMemPerBlock reports the shared-memory footprint of one block:
// the A and B staging tiles, replicated per pipeline stage.
func (c TileConfig) sharedMemPerBlock() int {
	return (c.BM*c.BK + c.BK*c.BN) * elemBytes * c.Stages
}

// registersPerBlock estimates the register-file footprint: per-thread
// FP32 accumulators for the warp tile plus operand fragments and
// bookkeeping, times 32 threads per warp.
func (c TileConfig) registersPerBlock() int {
	perThread := c.WM*c.WN/32 + 2*(c.WM+c.WN)*c.WK/32/16 + 40
	if perThread > 255 {
		perThread = 255
	}
	return perThread * 32 * c.warpsPerBlock()
}

// Occupancy describes how many blocks of a configuration fit per SM
// and why.
type Occupancy struct {
	BlocksPerSM int
	LimitedBy   string
}

// OccupancyOf computes the per-SM block occupancy of cfg on g.
func (g *GPU) OccupancyOf(cfg TileConfig) (Occupancy, error) {
	if err := cfg.Validate(); err != nil {
		return Occupancy{}, err
	}
	smem := cfg.sharedMemPerBlock()
	if smem > g.SharedMemPerSM {
		return Occupancy{}, fmt.Errorf("%w: %d B shared memory per block exceeds %d B per SM",
			ErrInfeasible, smem, g.SharedMemPerSM)
	}
	threads := cfg.warpsPerBlock() * 32
	if threads > g.MaxThreadsPerSM {
		return Occupancy{}, fmt.Errorf("%w: %d threads per block exceeds %d per SM",
			ErrInfeasible, threads, g.MaxThreadsPerSM)
	}
	regs := cfg.registersPerBlock()
	if regs > g.RegistersPerSM {
		return Occupancy{}, fmt.Errorf("%w: %d registers per block exceeds %d per SM",
			ErrInfeasible, regs, g.RegistersPerSM)
	}

	occ := Occupancy{BlocksPerSM: g.MaxBlocksPerSM, LimitedBy: "blocks"}
	if bySmem := g.SharedMemPerSM / smem; bySmem < occ.BlocksPerSM {
		occ = Occupancy{BlocksPerSM: bySmem, LimitedBy: "shared-memory"}
	}
	if byThreads := g.MaxThreadsPerSM / threads; byThreads < occ.BlocksPerSM {
		occ = Occupancy{BlocksPerSM: byThreads, LimitedBy: "threads"}
	}
	if byRegs := g.RegistersPerSM / regs; byRegs < occ.BlocksPerSM {
		occ = Occupancy{BlocksPerSM: byRegs, LimitedBy: "registers"}
	}
	if byWarps := g.MaxWarpsPerSM / cfg.warpsPerBlock(); byWarps < occ.BlocksPerSM {
		occ = Occupancy{BlocksPerSM: byWarps, LimitedBy: "warps"}
	}
	if occ.BlocksPerSM < 1 {
		return Occupancy{}, fmt.Errorf("%w: zero blocks fit per SM", ErrInfeasible)
	}
	return occ, nil
}

// warpEfficiency models how well a warp tile feeds the MMA pipeline.
// A 64×64 warp tile reaches the calibrated ceiling; smaller tiles
// re-issue more instructions per FLOP. CUDA-core kernels have a flat,
// lower ceiling and no MMA-shape alignment concerns.
func warpEfficiency(cfg TileConfig, class CoreClass) float64 {
	if class == CUDACore {
		return 0.70
	}
	const ceiling = 0.85
	area := float64(cfg.WM * cfg.WN)
	eff := ceiling * math.Pow(area/(64*64), 0.30)
	// MMA instruction shapes are m16n8k16 / m16n8k8: warp tiles not
	// aligned to them waste issue slots.
	if cfg.WM%16 != 0 || cfg.WN%8 != 0 || cfg.WK%8 != 0 {
		eff *= 0.6
	}
	if eff > ceiling {
		eff = ceiling
	}
	if eff < 0.20 {
		eff = 0.20
	}
	return eff
}

// KernelCost is the detailed cost breakdown of one GEMM kernel,
// exposed for the Fig. 12-style tile analysis and for tests.
type KernelCost struct {
	Shape  Shape
	Config TileConfig
	Class  CoreClass

	Blocks      int // thread-block count (grid size × split-K)
	BlocksPerSM int
	Waves       int
	SMUtil      float64 // average fraction of SMs with work
	WarpEff     float64
	KSteps      int // main-loop iterations per block
	PaddedFLOPs float64
	TileLoads   int64 // bytes staged through shared memory
	HBMBytes    int64 // bytes actually served by HBM after L2 reuse
	ComputeTime time.Duration
	MemoryTime  time.Duration
	L2Time      time.Duration
	ExposedTime time.Duration // unhidden DRAM latency + issue overhead
	SplitKTime  time.Duration // partial-sum reduction cost
	LaunchTime  time.Duration
	Total       time.Duration
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// l2Hit estimates the fraction of re-reads of an operand served by L2:
// high when the operand fits comfortably, decaying with the overflow
// ratio otherwise.
func (g *GPU) l2Hit(uniqueBytes int64) float64 {
	capacity := 0.75 * float64(g.L2Bytes)
	if float64(uniqueBytes) <= capacity {
		return 0.92
	}
	h := 0.92 * capacity / float64(uniqueBytes)
	if h < 0.15 {
		h = 0.15
	}
	return h
}

// GEMMCost evaluates the latency model for one GEMM: it compiles cfg
// and costs s through the kernel path.
func (g *GPU) GEMMCost(s Shape, cfg TileConfig, class CoreClass) (KernelCost, error) {
	k, err := g.Compile(cfg, class)
	if err != nil {
		return KernelCost{}, err
	}
	return k.GEMMCost(s)
}

// GEMMTime is GEMMCost reduced to its total latency.
func (g *GPU) GEMMTime(s Shape, cfg TileConfig, class CoreClass) (time.Duration, error) {
	k, err := g.Compile(cfg, class)
	if err != nil {
		return 0, err
	}
	return k.GEMMTime(s)
}
