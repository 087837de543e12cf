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
// the shape-dependent tiling work. GPU.GEMMCost and GPU.BatchGEMMTime
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

// GEMMTime is GEMMCost reduced to total latency, without building the
// breakdown.
func (k *Kernel) GEMMTime(s Shape) (time.Duration, error) {
	if s.M <= 0 || s.K <= 0 || s.N <= 0 {
		return 0, fmt.Errorf("simgpu: non-positive GEMM shape %v", s)
	}
	one := [1]Segment{{Shape: s, Count: 1}}
	return k.BatchTime(one[:])
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
	var s CostSums
	if err := k.sums(&s, segs); err != nil {
		return 0, err
	}
	return k.SumsTime(&s), nil
}

// The latency model is split into three pieces, the one place its
// formulas live:
//
//   - segTerms and unitAt: one segment shape's terms at unit count. A
//     segment's M enters only through gridM = ⌈M/BM⌉, so segTerms
//     holds everything that depends on K and N alone and unitAt adds
//     what depends on gridM;
//   - CostSums.add: the count-weighted sums over a batch's segments;
//   - tail: the wave, roofline and exposed-latency arithmetic that
//     turns the sums into latency.
//
// cost runs all three per call. A caller that costs many batches on
// one kernel precomputes Terms per (K, N) and feeds AddSegment and
// SumsTime, skipping the per-segment K and N work.

// SegmentTerms are one segment shape's cost terms under a kernel that
// do not depend on M, plus its unit terms at gridM = 1 (every segment
// of at most BM rows). Build them with Kernel.Terms.
type SegmentTerms struct {
	gridN, splitK int
	kSteps        int
	np, kp        int
	fnp, fkp      float64 // padded-FLOP factors: float64(np), float64(kp)
	uniqueB       int64
	missB         float64 // 1 - l2Hit(uniqueB)
	one           unitTerms
}

// unitTerms are one segment's contributions at count 1 and one gridM.
type unitTerms struct {
	blocks    int
	fmp       float64 // padded-FLOP factor float64(gridM·BM)
	tileLoads int64
	hbm       int64
}

// CostSums are the count-weighted sums of a batch's segments under one
// kernel; the zero value is an empty batch.
type CostSums struct {
	blocks      int
	segs        int
	paddedFLOPs float64
	tileLoads   int64
	hbm         int64
	maxKSteps   int
	splitKUsed  bool
}

// segTerms fills t with the M-independent terms of a segment with the
// given positive K and N; t.one is left unset. This piece and the
// other two write through pointers: returned by value, their structs
// were copied on every call and made the profiling search a third
// slower.
//
//valora:hotpath
func (k *Kernel) segTerms(t *SegmentTerms, K, N int) {
	cfg := k.cfg
	gridN := ceilDiv(N, cfg.BN)
	splitK := cfg.SplitK
	// Split-K beyond the number of K-tiles is pointless.
	if maxSplit := ceilDiv(K, cfg.BK); splitK > maxSplit {
		splitK = maxSplit
	}
	np := gridN * cfg.BN
	kPer := ceilDiv(ceilDiv(K, splitK), cfg.BK) * cfg.BK
	kp := kPer * splitK
	uniqueB := int64(np) * int64(kp) * elemBytes
	t.gridN = gridN
	t.splitK = splitK
	t.kSteps = kPer / cfg.BK
	t.np, t.kp = np, kp
	t.fnp, t.fkp = float64(np), float64(kp)
	t.uniqueB = uniqueB
	t.missB = 1 - k.g.l2Hit(uniqueB)
}

// unitAt fills u with a segment's unit terms at gridM.
//
//valora:hotpath
func (k *Kernel) unitAt(u *unitTerms, t *SegmentTerms, gridM int) {
	mp := gridM * k.cfg.BM
	np, kp := t.np, t.kp
	// Every block streams its A and B tiles through shared memory;
	// HBM serves first touches plus L2 misses on re-reads, the
	// output, and split-K partials (written, then read back for
	// the reduction).
	uniqueA := int64(mp) * int64(kp) * elemBytes
	rereadA := int64(t.gridN-1) * uniqueA
	rereadB := int64(gridM-1) * t.uniqueB
	hbm := uniqueA + t.uniqueB +
		int64(float64(rereadA)*(1-k.g.l2Hit(uniqueA))) +
		int64(float64(rereadB)*t.missB) +
		int64(mp)*int64(np)*elemBytes
	if t.splitK > 1 {
		hbm += 2 * int64(mp) * int64(np) * accumBytes * int64(t.splitK)
	}
	u.blocks = gridM * t.gridN * t.splitK
	u.fmp = float64(mp)
	u.tileLoads = int64(t.gridN)*int64(mp)*int64(kp)*elemBytes +
		int64(gridM)*int64(np)*int64(kp)*elemBytes
	u.hbm = hbm
}

// add accumulates n segments with terms t and unit terms u.
//
//valora:hotpath
func (s *CostSums) add(t *SegmentTerms, u *unitTerms, n int) {
	s.blocks += n * u.blocks
	s.segs += n
	s.paddedFLOPs += float64(n) * 2 * u.fmp * t.fnp * t.fkp
	s.tileLoads += int64(n) * u.tileLoads
	s.hbm += int64(n) * u.hbm
	if t.kSteps > s.maxKSteps {
		s.maxKSteps = t.kSteps
	}
	if t.splitK > 1 {
		s.splitKUsed = true
	}
}

// Terms precomputes the cost terms of segments with positive K and N
// on k, for AddSegment.
func (k *Kernel) Terms(K, N int) SegmentTerms {
	var t SegmentTerms
	k.segTerms(&t, K, N)
	k.unitAt(&t.one, &t, 1)
	return t
}

// AddSegment adds n segments of m ≥ 1 rows, whose K and N t was built
// for by k.Terms, to s. Segments of at most BM rows take t's gridM = 1
// terms; a non-positive n adds nothing.
//
//valora:hotpath
func (k *Kernel) AddSegment(s *CostSums, t *SegmentTerms, m, n int) {
	if n <= 0 {
		return
	}
	if m <= k.cfg.BM {
		s.add(t, &t.one, n)
		return
	}
	var u unitTerms
	k.unitAt(&u, t, ceilDiv(m, k.cfg.BM))
	s.add(t, &u, n)
}

// SumsTime is the total latency of one launch of k over the segments
// summed in s; an empty s costs zero.
//
//valora:hotpath
func (k *Kernel) SumsTime(s *CostSums) time.Duration {
	if s.blocks == 0 {
		return 0
	}
	var t tailTerms
	k.tail(&t, s)
	return t.total
}

// tailTerms are the latency terms tail derives from a batch's sums.
type tailTerms struct {
	waves                      int
	smUtil                     float64
	computeSec, memSec, l2Sec  float64
	exposed, splitKTime, total time.Duration
}

// tail fills t with the latency of non-empty sums.
//
//valora:hotpath
func (k *Kernel) tail(t *tailTerms, s *CostSums) {
	g := k.g
	blocks := s.blocks
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

	computeSec := s.paddedFLOPs / (k.peak * smUtil * k.weff * k.pipeEff)
	memSec := float64(s.hbm) / g.HBMBandwidth
	l2Sec := float64(s.tileLoads) / g.L2Bandwidth

	step := k.stepWide
	if blocks < g.SMs {
		step = k.stepSolo
	}
	exposed := time.Duration(float64(waves*s.maxKSteps) * step)

	var splitKTime time.Duration
	if s.splitKUsed {
		splitKTime = g.KernelLaunch // separate reduction kernel
	}
	roof := math.Max(computeSec, math.Max(memSec, l2Sec))
	t.waves, t.smUtil = waves, smUtil
	t.computeSec, t.memSec, t.l2Sec = computeSec, memSec, l2Sec
	t.exposed, t.splitKTime = exposed, splitKTime
	t.total = g.KernelLaunch + splitKTime + exposed + time.Duration(roof*1e9)*time.Nanosecond
}

// sums adds segs to s through the first two pieces of the model.
// Segments with a non-positive count are skipped.
//
//valora:hotpath
func (k *Kernel) sums(s *CostSums, segs []Segment) error {
	var (
		t SegmentTerms
		u unitTerms
	)
	for _, seg := range segs {
		n := seg.Count
		if n <= 0 {
			continue
		}
		sh := seg.Shape
		if sh.M <= 0 || sh.K <= 0 || sh.N <= 0 {
			//valora:allow hotpath -- cold path: operators validate their batches, so a bad shape never reaches the serving loop
			return fmt.Errorf("simgpu: non-positive segment shape %v", sh)
		}
		k.segTerms(&t, sh.K, sh.N)
		k.unitAt(&u, &t, ceilDiv(sh.M, k.cfg.BM))
		s.add(&t, &u, n)
	}
	return nil
}

// cost is the latency model with its full breakdown (Shape unset) and
// the segment count; a batch with no blocks costs zero.
func (k *Kernel) cost(segs []Segment) (KernelCost, int, error) {
	var s CostSums
	if err := k.sums(&s, segs); err != nil {
		return KernelCost{}, 0, err
	}
	if s.blocks == 0 {
		return KernelCost{Config: k.cfg, Class: k.class}, 0, nil
	}
	var t tailTerms
	k.tail(&t, &s)
	return KernelCost{
		Config:      k.cfg,
		Class:       k.class,
		Blocks:      s.blocks,
		BlocksPerSM: k.blocksPerSM,
		Waves:       t.waves,
		SMUtil:      t.smUtil,
		WarpEff:     k.weff,
		KSteps:      s.maxKSteps,
		PaddedFLOPs: s.paddedFLOPs,
		TileLoads:   s.tileLoads,
		HBMBytes:    s.hbm,
		ComputeTime: time.Duration(t.computeSec * 1e9),
		MemoryTime:  time.Duration(t.memSec * 1e9),
		L2Time:      time.Duration(t.l2Sec * 1e9),
		ExposedTime: t.exposed,
		SplitKTime:  t.splitKTime,
		LaunchTime:  k.g.KernelLaunch,
		Total:       t.total,
	}, s.segs, nil
}
