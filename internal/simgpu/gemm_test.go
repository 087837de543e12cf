package simgpu

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func validConfig() TileConfig {
	return TileConfig{BM: 64, BK: 32, BN: 64, WM: 32, WK: 32, WN: 32, SplitK: 1, Stages: 2}
}

func TestTileConfigValidate(t *testing.T) {
	if err := validConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []TileConfig{
		{BM: 8, BK: 32, BN: 64, WM: 8, WK: 32, WN: 32, SplitK: 1, Stages: 2},    // dim < 16
		{BM: 48, BK: 32, BN: 64, WM: 16, WK: 32, WN: 32, SplitK: 1, Stages: 2},  // not power of two
		{BM: 64, BK: 32, BN: 64, WM: 48, WK: 32, WN: 32, SplitK: 1, Stages: 2},  // invalid warp dim
		{BM: 64, BK: 32, BN: 64, WM: 128, WK: 32, WN: 32, SplitK: 1, Stages: 2}, // warp > block
		{BM: 64, BK: 32, BN: 64, WM: 32, WK: 32, WN: 32, SplitK: 0, Stages: 2},  // splitK < 1
		{BM: 64, BK: 32, BN: 64, WM: 32, WK: 32, WN: 32, SplitK: 1, Stages: 0},  // stages < 1
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); !errors.Is(err, ErrInfeasible) {
			t.Errorf("case %d: config %v should be infeasible, got %v", i, cfg, err)
		}
	}
}

func TestOccupancyLimits(t *testing.T) {
	g := A100()
	occ, err := g.OccupancyOf(validConfig())
	if err != nil {
		t.Fatal(err)
	}
	if occ.BlocksPerSM < 1 || occ.BlocksPerSM > g.MaxBlocksPerSM {
		t.Fatalf("blocks per SM %d out of range", occ.BlocksPerSM)
	}
	// A huge 3-stage tile must exceed the 164 KB shared memory.
	big := TileConfig{BM: 256, BK: 64, BN: 256, WM: 64, WK: 64, WN: 64, SplitK: 1, Stages: 3}
	if _, err := g.OccupancyOf(big); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("oversized tile should be infeasible, got %v", err)
	}
}

func TestGEMMCostPositive(t *testing.T) {
	g := A100()
	c, err := g.GEMMCost(Shape{M: 256, K: 4096, N: 64}, validConfig(), TensorCore)
	if err != nil {
		t.Fatal(err)
	}
	if c.Total <= 0 || c.Blocks <= 0 || c.PaddedFLOPs <= 0 || c.HBMBytes <= 0 {
		t.Fatalf("non-positive cost fields: %+v", c)
	}
	if c.SMUtil <= 0 || c.SMUtil > 1 {
		t.Fatalf("SM util %v out of (0,1]", c.SMUtil)
	}
}

func TestGEMMCostRejectsBadShape(t *testing.T) {
	g := A100()
	for _, s := range []Shape{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}, {-1, 4, 4}} {
		if _, err := g.GEMMCost(s, validConfig(), TensorCore); err == nil {
			t.Errorf("shape %v should be rejected", s)
		}
	}
}

func TestGEMMPaddingInflation(t *testing.T) {
	g := A100()
	cfg := validConfig()
	exact, err := g.GEMMCost(Shape{M: 64, K: 4096, N: 64}, cfg, TensorCore)
	if err != nil {
		t.Fatal(err)
	}
	padded, err := g.GEMMCost(Shape{M: 33, K: 4096, N: 33}, cfg, TensorCore)
	if err != nil {
		t.Fatal(err)
	}
	// Both pad to one 64x64 block, so the padded FLOPs match.
	if exact.PaddedFLOPs != padded.PaddedFLOPs {
		t.Fatalf("padded flops differ: %v vs %v", exact.PaddedFLOPs, padded.PaddedFLOPs)
	}
	if padded.PaddedFLOPs < padded.Shape.FLOPs() {
		t.Fatal("padded FLOPs must be at least the exact FLOPs")
	}
}

func TestGEMMMonotonicInM(t *testing.T) {
	g := A100()
	cfg := validConfig()
	var prev time.Duration
	for _, m := range []int{64, 256, 1024, 4096, 16384} {
		d, err := g.GEMMTime(Shape{M: m, K: 4096, N: 64}, cfg, TensorCore)
		if err != nil {
			t.Fatal(err)
		}
		if d < prev {
			t.Fatalf("time decreased when M grew to %d: %v < %v", m, d, prev)
		}
		prev = d
	}
}

func TestGEMMCUDAvsTensorCorePrefill(t *testing.T) {
	g := A100()
	cfg := validConfig()
	shape := Shape{M: 8192, K: 4096, N: 4096} // large compute-bound GEMM
	tc, err := g.GEMMTime(shape, cfg, TensorCore)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := g.GEMMTime(shape, cfg, CUDACore)
	if err != nil {
		t.Fatal(err)
	}
	if cc <= tc {
		t.Fatalf("CUDA cores (%v) should be slower than tensor cores (%v) on big GEMMs", cc, tc)
	}
	if ratio := float64(cc) / float64(tc); ratio < 2 {
		t.Fatalf("tensor/CUDA ratio %.2f too small for a compute-bound shape", ratio)
	}
}

// TestTable1Orderings checks the cost model reproduces the relative
// behaviour of the paper's Table 1: each static configuration wins one
// input shape and loses the other.
func TestTable1Orderings(t *testing.T) {
	g := A100()
	punica := TileConfig{BM: 16, BK: 64, BN: 64, WM: 16, WK: 16, WN: 64, SplitK: 1, Stages: 2}
	cfg2 := TileConfig{BM: 64, BK: 64, BN: 64, WM: 32, WK: 64, WN: 64, SplitK: 1, Stages: 2}
	small := Shape{M: 256, K: 4096, N: 32}
	large := Shape{M: 8192, K: 4096, N: 128}

	pSmall, _ := g.GEMMTime(small, punica, TensorCore)
	pLarge, _ := g.GEMMTime(large, punica, TensorCore)
	cSmall, _ := g.GEMMTime(small, cfg2, TensorCore)
	cLarge, _ := g.GEMMTime(large, cfg2, TensorCore)

	if !(pSmall < cSmall) {
		t.Errorf("small shape: Punica tile (%v) should beat the large tile (%v)", pSmall, cSmall)
	}
	if !(cLarge < pLarge) {
		t.Errorf("large shape: the large tile (%v) should beat Punica's (%v)", cLarge, pLarge)
	}
	if ratio := float64(pLarge) / float64(cLarge); ratio < 1.4 {
		t.Errorf("large-shape gap %.2fx too small (paper: ~1.9x)", ratio)
	}
}

func TestGEMMPropertyPositiveAndPadded(t *testing.T) {
	g := A100()
	cfg := validConfig()
	f := func(m, k, n uint16) bool {
		shape := Shape{M: int(m)%4096 + 1, K: int(k)%4096 + 1, N: int(n)%4096 + 1}
		c, err := g.GEMMCost(shape, cfg, TensorCore)
		if err != nil {
			return false
		}
		return c.Total > 0 && c.PaddedFLOPs >= shape.FLOPs() && c.Waves >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchGEMMMatchesSingle(t *testing.T) {
	g := A100()
	cfg := validConfig()
	shape := Shape{M: 512, K: 4096, N: 64}
	single, err := g.GEMMCost(shape, cfg, TensorCore)
	if err != nil {
		t.Fatal(err)
	}
	k, err := g.Compile(cfg, TensorCore)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := k.BatchCost([]Segment{{Shape: shape, Count: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Blocks != single.Blocks {
		t.Fatalf("single-segment batch blocks %d != single GEMM blocks %d", batch.Blocks, single.Blocks)
	}
	// The fused batch pays one launch; totals should be close.
	diff := batch.Total - single.Total
	if diff < -single.Total/4 || diff > single.Total/4 {
		t.Fatalf("single-segment batch %v too far from single GEMM %v", batch.Total, single.Total)
	}
}

func TestBatchGEMMFusionBeatsSeparateLaunches(t *testing.T) {
	g := A100()
	cfg := validConfig()
	shape := Shape{M: 16, K: 4096, N: 64}
	segs := []Segment{{Shape: shape, Count: 8}}
	fused, err := g.BatchGEMMTime(segs, cfg, TensorCore)
	if err != nil {
		t.Fatal(err)
	}
	one, err := g.GEMMTime(shape, cfg, TensorCore)
	if err != nil {
		t.Fatal(err)
	}
	if fused >= 8*one {
		t.Fatalf("fused batch (%v) should beat 8 separate launches (%v)", fused, 8*one)
	}
}

func TestBatchGEMMEmptyAndInvalid(t *testing.T) {
	g := A100()
	cfg := validConfig()
	k, err := g.Compile(cfg, TensorCore)
	if err != nil {
		t.Fatal(err)
	}
	c, err := k.BatchCost(nil)
	if err != nil || c.Total != 0 {
		t.Fatalf("empty batch should cost zero, got %v err %v", c.Total, err)
	}
	c, err = k.BatchCost([]Segment{{Shape: Shape{M: 4, K: 4, N: 4}, Count: 0}})
	if err != nil || c.Total != 0 {
		t.Fatalf("zero-count segments should cost zero, got %v err %v", c.Total, err)
	}
	if _, err := k.BatchCost([]Segment{{Shape: Shape{M: 0, K: 4, N: 4}, Count: 1}}); err == nil {
		t.Fatal("invalid segment shape should error")
	}
}

func TestBatchGEMMMonotonicInSegments(t *testing.T) {
	g := A100()
	cfg := validConfig()
	rng := rand.New(rand.NewSource(3))
	shape := Shape{M: 64 + rng.Intn(512), K: 4096, N: 64}
	var prev time.Duration
	for count := 1; count <= 64; count *= 4 {
		d, err := g.BatchGEMMTime([]Segment{{Shape: shape, Count: count}}, cfg, TensorCore)
		if err != nil {
			t.Fatal(err)
		}
		if d < prev {
			t.Fatalf("batch time decreased at count %d: %v < %v", count, d, prev)
		}
		prev = d
	}
}

func TestAnalyzeTiling(t *testing.T) {
	g := A100()
	a, err := g.AnalyzeTiling(Shape{M: 256, K: 4096, N: 32}, validConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.ThreadBlocks <= 0 || a.SMsUsed <= 0 || a.SMsUsed > a.SMsTotal {
		t.Fatalf("bad analysis %+v", a)
	}
	if a.PaddingFrac < 0 || a.PaddingFrac >= 1 {
		t.Fatalf("padding fraction %v out of [0,1)", a.PaddingFrac)
	}
	if a.String() == "" {
		t.Fatal("analysis string empty")
	}
}
