package simgpu

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// This file freezes the cost formulas as a test oracle: refGEMMCost and
// refBatchGEMMCost evaluate every term per call, straight from the
// TileConfig, the way the model did before configurations were
// compiled into Kernels. The differential tests below hold the
// production path bit-identical to them.

func refWarpEfficiency(cfg TileConfig, class CoreClass) float64 {
	if class == CUDACore {
		return 0.70
	}
	const ceiling = 0.85
	area := float64(cfg.WM * cfg.WN)
	eff := ceiling * math.Pow(area/(64*64), 0.30)
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

func refGEMMCost(g *GPU, s Shape, cfg TileConfig, class CoreClass) (KernelCost, error) {
	occ, err := g.OccupancyOf(cfg)
	if err != nil {
		return KernelCost{}, err
	}
	if s.M <= 0 || s.K <= 0 || s.N <= 0 {
		return KernelCost{}, fmt.Errorf("simgpu: non-positive GEMM shape %v", s)
	}
	gridM := ceilDiv(s.M, cfg.BM)
	gridN := ceilDiv(s.N, cfg.BN)
	splitK := cfg.SplitK
	if maxSplit := ceilDiv(s.K, cfg.BK); splitK > maxSplit {
		splitK = maxSplit
	}
	blocks := gridM * gridN * splitK
	mp := gridM * cfg.BM
	np := gridN * cfg.BN
	kPer := ceilDiv(ceilDiv(s.K, splitK), cfg.BK) * cfg.BK
	kp := kPer * splitK
	kSteps := kPer / cfg.BK
	paddedFLOPs := 2 * float64(mp) * float64(np) * float64(kp)
	blocksPerWave := g.SMs * occ.BlocksPerSM
	waves := ceilDiv(blocks, blocksPerWave)
	var smUtil float64
	if waves == 1 {
		smUtil = math.Min(1, float64(blocks)/float64(g.SMs))
	} else {
		rem := blocks - (waves-1)*blocksPerWave
		last := math.Min(1, float64(rem)/float64(g.SMs))
		smUtil = (float64(waves-1) + last) / float64(waves)
	}
	weff := refWarpEfficiency(cfg, class)
	pipeEff := 1.0
	if cfg.Stages < 2 {
		pipeEff = 0.74
	}
	computeSec := paddedFLOPs / (g.peakFLOPS(class) * smUtil * weff * pipeEff)
	tileLoads := int64(gridN)*int64(mp)*int64(kp)*elemBytes +
		int64(gridM)*int64(np)*int64(kp)*elemBytes
	uniqueA := int64(mp) * int64(kp) * elemBytes
	uniqueB := int64(np) * int64(kp) * elemBytes
	rereadA := int64(gridN-1) * uniqueA
	rereadB := int64(gridM-1) * uniqueB
	hbm := uniqueA + uniqueB +
		int64(float64(rereadA)*(1-g.l2Hit(uniqueA))) +
		int64(float64(rereadB)*(1-g.l2Hit(uniqueB)))
	hbm += int64(mp) * int64(np) * elemBytes
	var splitKTime time.Duration
	if splitK > 1 {
		hbm += 2 * int64(mp) * int64(np) * accumBytes * int64(splitK)
		splitKTime = g.KernelLaunch
	}
	memSec := float64(hbm) / g.HBMBandwidth
	l2Sec := float64(tileLoads) / g.L2Bandwidth
	warps := (cfg.BM / cfg.WM) * (cfg.BN / cfg.WN)
	hiding := math.Min(1, float64(occ.BlocksPerSM*warps*(cfg.Stages-1))/hidingWarps)
	residentBlocks := blocks
	if residentBlocks > blocksPerWave {
		residentBlocks = blocksPerWave
	}
	if residentBlocks < g.SMs {
		hiding = math.Min(1, float64(warps*(cfg.Stages-1))/hidingWarps)
	}
	stall := float64(g.DRAMLatency) * (1 - hiding)
	exposed := time.Duration(float64(waves*kSteps) * (float64(issuePerK) + stall))
	roof := math.Max(computeSec, math.Max(memSec, l2Sec))
	total := g.KernelLaunch + splitKTime + exposed + time.Duration(roof*1e9)*time.Nanosecond
	return KernelCost{
		Shape: s, Config: cfg, Class: class,
		Blocks: blocks, BlocksPerSM: occ.BlocksPerSM, Waves: waves, SMUtil: smUtil,
		WarpEff: weff, KSteps: kSteps, PaddedFLOPs: paddedFLOPs,
		TileLoads: tileLoads, HBMBytes: hbm,
		ComputeTime: time.Duration(computeSec * 1e9),
		MemoryTime:  time.Duration(memSec * 1e9),
		L2Time:      time.Duration(l2Sec * 1e9),
		ExposedTime: exposed, SplitKTime: splitKTime, LaunchTime: g.KernelLaunch,
		Total: total,
	}, nil
}

func refBatchGEMMCost(g *GPU, segs []Segment, cfg TileConfig, class CoreClass) (BatchCost, error) {
	occ, err := g.OccupancyOf(cfg)
	if err != nil {
		return BatchCost{}, err
	}
	var (
		blocks, totalSegs, maxKSteps int
		paddedFLOPs                  float64
		tileLoads, hbm               int64
		splitKUsed                   bool
	)
	for _, seg := range segs {
		n := seg.Count
		if n <= 0 {
			continue
		}
		s := seg.Shape
		if s.M <= 0 || s.K <= 0 || s.N <= 0 {
			return BatchCost{}, fmt.Errorf("simgpu: non-positive segment shape %v", s)
		}
		gridM := ceilDiv(s.M, cfg.BM)
		gridN := ceilDiv(s.N, cfg.BN)
		splitK := cfg.SplitK
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
		tileLoads += int64(n) * (int64(gridN)*int64(mp)*int64(kp)*elemBytes +
			int64(gridM)*int64(np)*int64(kp)*elemBytes)
		uniqueA := int64(mp) * int64(kp) * elemBytes
		uniqueB := int64(np) * int64(kp) * elemBytes
		segHBM := uniqueA + uniqueB +
			int64(float64(int64(gridN-1)*uniqueA)*(1-g.l2Hit(uniqueA))) +
			int64(float64(int64(gridM-1)*uniqueB)*(1-g.l2Hit(uniqueB))) +
			int64(mp)*int64(np)*elemBytes
		if splitK > 1 {
			segHBM += 2 * int64(mp) * int64(np) * accumBytes * int64(splitK)
		}
		hbm += int64(n) * segHBM
	}
	if blocks == 0 {
		return BatchCost{Config: cfg, Class: class}, nil
	}
	blocksPerWave := g.SMs * occ.BlocksPerSM
	waves := ceilDiv(blocks, blocksPerWave)
	var smUtil float64
	if waves == 1 {
		smUtil = math.Min(1, float64(blocks)/float64(g.SMs))
	} else {
		rem := blocks - (waves-1)*blocksPerWave
		smUtil = (float64(waves-1) + math.Min(1, float64(rem)/float64(g.SMs))) / float64(waves)
	}
	weff := refWarpEfficiency(cfg, class)
	pipeEff := 1.0
	if cfg.Stages < 2 {
		pipeEff = 0.74
	}
	computeSec := paddedFLOPs / (g.peakFLOPS(class) * smUtil * weff * pipeEff)
	memSec := float64(hbm) / g.HBMBandwidth
	l2Sec := float64(tileLoads) / g.L2Bandwidth
	warps := (cfg.BM / cfg.WM) * (cfg.BN / cfg.WN)
	hiding := math.Min(1, float64(occ.BlocksPerSM*warps*(cfg.Stages-1))/hidingWarps)
	if blocks < g.SMs {
		hiding = math.Min(1, float64(warps*(cfg.Stages-1))/hidingWarps)
	}
	stall := float64(g.DRAMLatency) * (1 - hiding)
	exposed := time.Duration(float64(waves*maxKSteps) * (float64(issuePerK) + stall))
	var splitKTime time.Duration
	if splitKUsed {
		splitKTime = g.KernelLaunch
	}
	roof := math.Max(computeSec, math.Max(memSec, l2Sec))
	total := g.KernelLaunch + splitKTime + exposed + time.Duration(roof*1e9)*time.Nanosecond
	return BatchCost{
		Config: cfg, Class: class, Segments: totalSegs,
		Blocks: blocks, Waves: waves, SMUtil: smUtil, Total: total,
	}, nil
}

// rawSpace enumerates the configuration grid without any feasibility
// filter, so infeasible configurations (shared memory, threads,
// registers, structural limits) are exercised too.
func rawSpace() []TileConfig {
	var out []TileConfig
	for _, bm := range []int{16, 32, 64, 128, 256} {
		for _, bn := range []int{16, 32, 64, 128, 256} {
			for _, bk := range []int{16, 32, 64} {
				for _, wm := range []int{16, 32, 64} {
					for _, wn := range []int{16, 32, 64} {
						for _, sk := range []int{1, 4, 16} {
							for _, st := range []int{1, 2, 3} {
								out = append(out, TileConfig{BM: bm, BK: bk, BN: bn, WM: wm, WK: bk, WN: wn, SplitK: sk, Stages: st})
							}
						}
					}
				}
			}
		}
	}
	// Structurally invalid: below 16, not a power of two, no split-K.
	return append(out,
		TileConfig{BM: 8, BK: 32, BN: 64, WM: 8, WK: 32, WN: 32, SplitK: 1, Stages: 2},
		TileConfig{BM: 48, BK: 32, BN: 64, WM: 16, WK: 32, WN: 32, SplitK: 1, Stages: 2},
		TileConfig{BM: 64, BK: 32, BN: 64, WM: 32, WK: 32, WN: 32, SplitK: 0, Stages: 2},
	)
}

// randomSegments draws a segment list shaped like the LoRA data path
// (token-count M against hidden-dim and rank K/N) plus ΔW squares,
// with occasional zero counts and, when bad is set, one non-positive
// shape.
func randomSegments(rng *rand.Rand, bad bool) []Segment {
	dims := []int{2048, 4096, 5120}
	ranks := []int{8, 16, 32, 64, 128}
	segs := make([]Segment, 1+rng.Intn(8))
	for i := range segs {
		m := 1 + rng.Intn(1<<uint(1+rng.Intn(15)))
		d, r := dims[rng.Intn(len(dims))], ranks[rng.Intn(len(ranks))]
		var s Shape
		switch rng.Intn(3) {
		case 0:
			s = Shape{M: m, K: d, N: r}
		case 1:
			s = Shape{M: m, K: r, N: d}
		default:
			s = Shape{M: d, K: r, N: d}
		}
		segs[i] = Segment{Shape: s, Count: rng.Intn(5)}
	}
	if bad {
		segs[rng.Intn(len(segs))] = Segment{Shape: Shape{M: 0, K: 4096, N: 64}, Count: 1}
	}
	return segs
}

// TestCostMatchesReference holds GEMMCost, GEMMTime, Kernel.BatchCost
// and BatchGEMMTime bit-identical to the frozen oracle on every grid
// configuration, on both GPUs and both core classes, over random
// segment lists; infeasible configurations and bad shapes must return
// the oracle's error.
func TestCostMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	lists := make([][]Segment, 12)
	for i := range lists {
		lists[i] = randomSegments(rng, i == len(lists)-1)
	}
	lists = append(lists, nil, []Segment{{Shape: Shape{M: 4, K: 4, N: 4}, Count: 0}})
	shapes := []Shape{{M: 1, K: 4096, N: 16}, {M: 300, K: 64, N: 4096}, {M: 4096, K: 64, N: 4096}, {M: 8192, K: 4096, N: 4096}, {M: 0, K: 8, N: 8}}
	for _, g := range []*GPU{A100(), A10()} {
		for _, cfg := range rawSpace() {
			for _, class := range []CoreClass{TensorCore, CUDACore} {
				for _, segs := range lists {
					want, wantErr := refBatchGEMMCost(g, segs, cfg, class)
					k, err := g.Compile(cfg, class)
					got := BatchCost{}
					if err == nil {
						got, err = k.BatchCost(segs)
					}
					if !sameErr(err, wantErr) || got != want {
						t.Fatalf("%s %v %v segs %v: Kernel.BatchCost = %+v, %v; reference %+v, %v", g.Name, cfg, class, segs, got, err, want, wantErr)
					}
					d, err := g.BatchGEMMTime(segs, cfg, class)
					if !sameErr(err, wantErr) || d != want.Total {
						t.Fatalf("%s %v %v: BatchGEMMTime = %v, %v; reference %v, %v", g.Name, cfg, class, d, err, want.Total, wantErr)
					}
				}
				for _, s := range shapes {
					want, wantErr := refGEMMCost(g, s, cfg, class)
					got, err := g.GEMMCost(s, cfg, class)
					if !sameErr(err, wantErr) || got != want {
						t.Fatalf("%s %v %v %v: GEMMCost = %+v, %v; reference %+v, %v", g.Name, s, cfg, class, got, err, want, wantErr)
					}
					d, err := g.GEMMTime(s, cfg, class)
					if !sameErr(err, wantErr) || d != want.Total {
						t.Fatalf("%s %v %v %v: GEMMTime = %v, %v; reference %v, %v", g.Name, s, cfg, class, d, err, want.Total, wantErr)
					}
				}
			}
		}
	}
}

// sameErr reports whether two errors are both nil or carry the same
// message.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// TestSegmentTermsMatchReference holds the precomputed-terms path —
// Terms per (K, N), AddSegment per segment, SumsTime per launch —
// bit-identical to the frozen oracle's batch total on every feasible
// grid configuration, with row counts at every BM multiple ±1 so
// segments take both the gridM = 1 terms and the per-call gridM path.
func TestSegmentTermsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	lists := make([][]Segment, 12)
	for i := range lists {
		lists[i] = randomSegments(rng, false)
	}
	lists = append(lists, nil)
	for _, bm := range []int{16, 32, 64, 128, 256} {
		var segs []Segment
		for j := 1; j <= 4; j++ {
			for _, m := range []int{j*bm - 1, j * bm, j*bm + 1} {
				segs = append(segs, Segment{Shape: Shape{M: m, K: 4096, N: 64}, Count: 2}, Segment{Shape: Shape{M: m, K: 64, N: 4096}, Count: 1})
			}
		}
		lists = append(lists, segs)
	}
	for _, g := range []*GPU{A100(), A10()} {
		for _, cfg := range rawSpace() {
			for _, class := range []CoreClass{TensorCore, CUDACore} {
				k, err := g.Compile(cfg, class)
				if err != nil {
					continue
				}
				for _, segs := range lists {
					want, err := refBatchGEMMCost(g, segs, cfg, class)
					if err != nil {
						t.Fatal(err)
					}
					var s CostSums
					for _, seg := range segs {
						terms := k.Terms(seg.Shape.K, seg.Shape.N)
						k.AddSegment(&s, &terms, seg.Shape.M, seg.Count)
					}
					if got := k.SumsTime(&s); got != want.Total {
						t.Fatalf("%s %v %v segs %v: SumsTime = %v; reference %v", g.Name, cfg, class, segs, got, want.Total)
					}
				}
			}
		}
	}
}
