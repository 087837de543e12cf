package simgpu

import (
	"fmt"
	"math"
	"time"
)

// Kernel is a tiling configuration compiled for one GPU and core
// class, the simulated analogue of the precompiled kernels ATMM looks
// up at runtime (§5). Compile validates the configuration once and
// precomputes every term that depends on the configuration alone:
// occupancy, warp efficiency, and the per-main-loop-step exposed
// latency the software pipeline leaves. Costing a shape then only does
// the shape-dependent tiling work. GPU.GEMMCost and GPU.BatchGEMMCost
// compile per call and run the same path, so a Kernel's costs are
// bit-identical to theirs.
//
// A Kernel is immutable and safe to share across goroutines. It reads
// its GPU's parameters, which must not change after Compile.
type Kernel struct {
	g     *GPU
	cfg   TileConfig
	class CoreClass

	blocksPerSM   int
	blocksPerWave int
	peak          float64 // core-class peak FLOP/s
	weff          float64 // warp efficiency
	pipeEff       float64 // main-loop pipelining efficiency
	// stepWide and stepSolo are the exposed time per main-loop step
	// (issue overhead plus the DRAM stall the pipeline fails to hide),
	// with every resident block's warps hiding latency and with a
	// block alone on its SM.
	stepWide, stepSolo float64
}

// Compile validates cfg on g and precomputes its configuration-only
// cost terms. It returns the error OccupancyOf reports for an
// infeasible configuration.
func (g *GPU) Compile(cfg TileConfig, class CoreClass) (Kernel, error) {
	occ, err := g.OccupancyOf(cfg)
	if err != nil {
		return Kernel{}, err
	}
	pipeEff := 1.0
	if cfg.Stages < 2 {
		pipeEff = 0.74 // single-buffered main loop stalls on every tile load
	}
	// With low occupancy the pipeline cannot hide DRAM latency, so each
	// main-loop step pays a stall. With fewer blocks than SMs a block
	// cannot overlap with a neighbour, so hiding comes only from its
	// own warps.
	warps := cfg.warpsPerBlock()
	wide := math.Min(1, float64(occ.BlocksPerSM*warps*(cfg.Stages-1))/hidingWarps)
	solo := math.Min(1, float64(warps*(cfg.Stages-1))/hidingWarps)
	return Kernel{
		g:             g,
		cfg:           cfg,
		class:         class,
		blocksPerSM:   occ.BlocksPerSM,
		blocksPerWave: g.SMs * occ.BlocksPerSM,
		peak:          g.peakFLOPS(class),
		weff:          warpEfficiency(cfg, class),
		pipeEff:       pipeEff,
		stepWide:      float64(issuePerK) + float64(g.DRAMLatency)*(1-wide),
		stepSolo:      float64(issuePerK) + float64(g.DRAMLatency)*(1-solo),
	}, nil
}

// Config reports the tiling configuration the kernel was compiled from.
func (k *Kernel) Config() TileConfig { return k.cfg }

// GEMMCost evaluates the latency model for one GEMM.
func (k *Kernel) GEMMCost(s Shape) (KernelCost, error) {
	if s.M <= 0 || s.K <= 0 || s.N <= 0 {
		return KernelCost{}, fmt.Errorf("simgpu: non-positive GEMM shape %v", s)
	}
	one := [1]Segment{{Shape: s, Count: 1}}
	c, _, err := k.cost(one[:])
	c.Shape = s
	return c, err
}

// BatchCost aggregates the per-segment tiling work into one fused
// kernel cost: block counts, FLOPs and memory traffic are summed, wave
// scheduling and SM utilization are computed over the union grid, and
// the exposed-latency term uses the deepest segment's main loop (all
// segments advance in parallel).
func (k *Kernel) BatchCost(segs []Segment) (BatchCost, error) {
	c, n, err := k.cost(segs)
	if err != nil {
		return BatchCost{}, err
	}
	return BatchCost{
		Config:   k.cfg,
		Class:    k.class,
		Segments: n,
		Blocks:   c.Blocks,
		Waves:    c.Waves,
		SMUtil:   c.SMUtil,
		Total:    c.Total,
	}, nil
}

// BatchTime is BatchCost reduced to total latency.
//
//valora:hotpath
func (k *Kernel) BatchTime(segs []Segment) (time.Duration, error) {
	c, _, err := k.cost(segs)
	return c.Total, err
}

// cost is the latency model: the one place its formulas live. It
// reports the breakdown (Shape unset) and the segment count; segments
// with a non-positive count are skipped, and a batch with no blocks
// costs zero.
//
//valora:hotpath
func (k *Kernel) cost(segs []Segment) (KernelCost, int, error) {
	g, cfg := k.g, k.cfg
	var (
		blocks      int
		totalSegs   int
		paddedFLOPs float64
		tileLoads   int64
		hbm         int64
		maxKSteps   int
		splitKUsed  bool
	)
	for _, seg := range segs {
		n := seg.Count
		if n <= 0 {
			continue
		}
		s := seg.Shape
		if s.M <= 0 || s.K <= 0 || s.N <= 0 {
			//valora:allow hotpath -- cold path: operators validate their batches, so a bad shape never reaches the serving loop
			return KernelCost{}, 0, fmt.Errorf("simgpu: non-positive segment shape %v", s)
		}
		gridM := ceilDiv(s.M, cfg.BM)
		gridN := ceilDiv(s.N, cfg.BN)
		splitK := cfg.SplitK
		// Split-K beyond the number of K-tiles is pointless.
		if maxSplit := ceilDiv(s.K, cfg.BK); splitK > maxSplit {
			splitK = maxSplit
		}
		if splitK > 1 {
			splitKUsed = true
		}
		mp := gridM * cfg.BM
		np := gridN * cfg.BN
		kPer := ceilDiv(ceilDiv(s.K, splitK), cfg.BK) * cfg.BK
		kp := kPer * splitK
		if kSteps := kPer / cfg.BK; kSteps > maxKSteps {
			maxKSteps = kSteps
		}

		blocks += n * gridM * gridN * splitK
		totalSegs += n
		paddedFLOPs += float64(n) * 2 * float64(mp) * float64(np) * float64(kp)

		// Every block streams its A and B tiles through shared memory;
		// HBM serves first touches plus L2 misses on re-reads, the
		// output, and split-K partials (written, then read back for
		// the reduction).
		tileLoads += int64(n) * (int64(gridN)*int64(mp)*int64(kp)*elemBytes +
			int64(gridM)*int64(np)*int64(kp)*elemBytes)
		uniqueA := int64(mp) * int64(kp) * elemBytes
		uniqueB := int64(np) * int64(kp) * elemBytes
		rereadA := int64(gridN-1) * uniqueA
		rereadB := int64(gridM-1) * uniqueB
		segHBM := uniqueA + uniqueB +
			int64(float64(rereadA)*(1-g.l2Hit(uniqueA))) +
			int64(float64(rereadB)*(1-g.l2Hit(uniqueB))) +
			int64(mp)*int64(np)*elemBytes
		if splitK > 1 {
			segHBM += 2 * int64(mp) * int64(np) * accumBytes * int64(splitK)
		}
		hbm += int64(n) * segHBM
	}
	if blocks == 0 {
		return KernelCost{Config: cfg, Class: k.class}, 0, nil
	}

	// Wave accounting.
	waves := ceilDiv(blocks, k.blocksPerWave)
	var smUtil float64
	if waves == 1 {
		smUtil = math.Min(1, float64(blocks)/float64(g.SMs))
	} else {
		rem := blocks - (waves-1)*k.blocksPerWave
		last := math.Min(1, float64(rem)/float64(g.SMs))
		smUtil = (float64(waves-1) + last) / float64(waves)
	}

	computeSec := paddedFLOPs / (k.peak * smUtil * k.weff * k.pipeEff)
	memSec := float64(hbm) / g.HBMBandwidth
	l2Sec := float64(tileLoads) / g.L2Bandwidth

	step := k.stepWide
	if blocks < g.SMs {
		step = k.stepSolo
	}
	exposed := time.Duration(float64(waves*maxKSteps) * step)

	var splitKTime time.Duration
	if splitKUsed {
		splitKTime = g.KernelLaunch // separate reduction kernel
	}
	roof := math.Max(computeSec, math.Max(memSec, l2Sec))
	total := g.KernelLaunch + splitKTime + exposed + time.Duration(roof*1e9)*time.Nanosecond

	return KernelCost{
		Config:      cfg,
		Class:       k.class,
		Blocks:      blocks,
		BlocksPerSM: k.blocksPerSM,
		Waves:       waves,
		SMUtil:      smUtil,
		WarpEff:     k.weff,
		KSteps:      maxKSteps,
		PaddedFLOPs: paddedFLOPs,
		TileLoads:   tileLoads,
		HBMBytes:    hbm,
		ComputeTime: time.Duration(computeSec * 1e9),
		MemoryTime:  time.Duration(memSec * 1e9),
		L2Time:      time.Duration(l2Sec * 1e9),
		ExposedTime: exposed,
		SplitKTime:  splitKTime,
		LaunchTime:  g.KernelLaunch,
		Total:       total,
	}, totalSegs, nil
}
