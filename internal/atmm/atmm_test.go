package atmm

import (
	"testing"
	"time"

	"valora/internal/simgpu"
)

func testBatch(tokens, adapters, rank, projections int) Batch {
	per := tokens / adapters
	if per < 1 {
		per = 1
	}
	b := Batch{Dim: 4096, Projections: projections}
	for i := 0; i < adapters; i++ {
		b.Groups = append(b.Groups, Group{AdapterID: i, Tokens: per, Rank: rank})
	}
	return b
}

func TestBatchAccessors(t *testing.T) {
	b := Batch{Dim: 4096, Projections: 2, Groups: []Group{
		{AdapterID: 0, Tokens: 10, Rank: 16},
		{AdapterID: 1, Tokens: 30, Rank: 64},
	}}
	if b.TotalTokens() != 40 || b.MaxTokens() != 30 || b.MaxRank() != 64 {
		t.Fatalf("accessors wrong: total=%d max=%d rank=%d", b.TotalTokens(), b.MaxTokens(), b.MaxRank())
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBatchValidate(t *testing.T) {
	bad := []Batch{
		{Dim: 0, Projections: 2, Groups: []Group{{Tokens: 1, Rank: 1}}},
		{Dim: 4096, Projections: 0, Groups: []Group{{Tokens: 1, Rank: 1}}},
		{Dim: 4096, Projections: 2, Groups: []Group{{Tokens: 0, Rank: 16}}},
		{Dim: 4096, Projections: 2, Groups: []Group{{Tokens: 4, Rank: 0}}},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func newOps(t *testing.T) (*ATMM, *Punica, *SLoRA, *DLoRAEinsum) {
	t.Helper()
	g := simgpu.A100()
	a, err := NewATMM(g, 4096, 8192)
	if err != nil {
		t.Fatal(err)
	}
	pu, sl, dl := NewBaselines(g)
	return a, pu, sl, dl
}

func TestOperatorsRejectInvalidBatch(t *testing.T) {
	a, pu, sl, dl := newOps(t)
	bad := Batch{Dim: 0}
	for _, op := range []Operator{a, pu, sl, dl} {
		if _, err := op.LayerTime(bad); err == nil {
			t.Errorf("%s accepted an invalid batch", op.Name())
		}
	}
}

func TestATMMFastestAcrossSizes(t *testing.T) {
	a, pu, sl, dl := newOps(t)
	for _, tokens := range []int{16, 256, 1024, 8192} {
		b := testBatch(tokens, 4, 64, 4)
		ta, err := a.LayerTime(b)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range []Operator{pu, sl, dl} {
			d, err := op.LayerTime(b)
			if err != nil {
				t.Fatal(err)
			}
			if d < ta {
				t.Errorf("tokens=%d: %s (%v) beat ATMM (%v)", tokens, op.Name(), d, ta)
			}
		}
	}
}

// TestFig17Shape checks the qualitative Fig. 17 claims: S-LoRA is
// competitive at decode but collapses at prefill scale; dLoRA is the
// slowest at decode sizes.
func TestFig17Shape(t *testing.T) {
	a, _, sl, dl := newOps(t)
	decode := testBatch(16, 4, 64, 4)
	prefill := testBatch(8192, 4, 64, 4)

	aDecode, _ := a.LayerTime(decode)
	slDecode, _ := sl.LayerTime(decode)
	dlDecode, _ := dl.LayerTime(decode)
	if float64(slDecode) > 2.5*float64(aDecode) {
		t.Errorf("S-LoRA decode (%v) should be within ~2.5x of ATMM (%v)", slDecode, aDecode)
	}
	if float64(dlDecode) < 3*float64(aDecode) {
		t.Errorf("dLoRA decode (%v) should be >=3x ATMM (%v)", dlDecode, aDecode)
	}

	aPrefill, _ := a.LayerTime(prefill)
	slPrefill, _ := sl.LayerTime(prefill)
	if float64(slPrefill) < 2*float64(aPrefill) {
		t.Errorf("S-LoRA prefill (%v) should be >=2x ATMM (%v): CUDA-core peak", slPrefill, aPrefill)
	}
}

func TestStaticATMMSlower(t *testing.T) {
	g := simgpu.A100()
	adaptive, err := NewATMM(g, 4096, 8192)
	if err != nil {
		t.Fatal(err)
	}
	static := NewStaticATMM(g)
	worse := 0
	for _, tokens := range []int{16, 256, 1024, 8192} {
		b := testBatch(tokens, 4, 64, 4)
		da, _ := adaptive.LayerTime(b)
		ds, _ := static.LayerTime(b)
		if ds < da {
			t.Errorf("tokens=%d: static (%v) beat adaptive (%v)", tokens, ds, da)
		}
		if float64(ds) > 1.05*float64(da) {
			worse++
		}
	}
	if worse == 0 {
		t.Error("static tiling should be measurably worse somewhere in the sweep")
	}
}

func TestDLoRAPaddingPenalty(t *testing.T) {
	_, _, _, dl := newOps(t)
	// Same total tokens, but one batch is heavily imbalanced: einsum
	// pads every group to the max, so imbalance costs more.
	balanced := Batch{Dim: 4096, Projections: 4, Groups: []Group{
		{AdapterID: 0, Tokens: 512, Rank: 64}, {AdapterID: 1, Tokens: 512, Rank: 64},
	}}
	imbalanced := Batch{Dim: 4096, Projections: 4, Groups: []Group{
		{AdapterID: 0, Tokens: 1008, Rank: 64}, {AdapterID: 1, Tokens: 16, Rank: 64},
	}}
	db, err := dl.LayerTime(balanced)
	if err != nil {
		t.Fatal(err)
	}
	di, err := dl.LayerTime(imbalanced)
	if err != nil {
		t.Fatal(err)
	}
	if di <= db {
		t.Fatalf("imbalanced einsum batch (%v) should pay padding over balanced (%v)", di, db)
	}
}

func TestGatherCostGrowsWithAdapters(t *testing.T) {
	a, _, _, _ := newOps(t)
	few, err := a.LayerTime(testBatch(64, 2, 64, 4))
	if err != nil {
		t.Fatal(err)
	}
	many, err := a.LayerTime(testBatch(64, 16, 64, 4))
	if err != nil {
		t.Fatal(err)
	}
	if many <= few {
		t.Fatalf("16-adapter batch (%v) should cost more than 2-adapter (%v) at equal tokens", many, few)
	}
}

func TestATMMGEMMAndBatchHelpers(t *testing.T) {
	a, _, _, _ := newOps(t)
	sh := simgpu.Shape{M: 4096, K: 64, N: 4096}
	d, err := a.BatchTime([]simgpu.Segment{{Shape: sh, Count: 1}}, sh)
	if err != nil || d <= 0 {
		t.Fatalf("single-segment BatchTime = %v err %v", d, err)
	}
	segs := []simgpu.Segment{{Shape: sh, Count: 8}}
	bd, err := a.BatchTime(segs, sh)
	if err != nil || bd <= d {
		t.Fatalf("BatchTime = %v err %v (single %v)", bd, err, d)
	}
	if bd > 8*d {
		t.Fatalf("fused batch (%v) should not exceed 8 separate calls (%v)", bd, 8*d)
	}
}

func TestOperatorNames(t *testing.T) {
	a, pu, sl, dl := newOps(t)
	names := map[string]bool{}
	for _, op := range []Operator{a, pu, sl, dl} {
		names[op.Name()] = true
	}
	for _, want := range []string{"ATMM", "Punica", "S-LoRA", "dLoRA"} {
		if !names[want] {
			t.Errorf("missing operator name %q", want)
		}
	}
}

func TestLayerTimePositive(t *testing.T) {
	a, pu, sl, dl := newOps(t)
	b := testBatch(128, 3, 32, 2)
	for _, op := range []Operator{a, pu, sl, dl} {
		d, err := op.LayerTime(b)
		if err != nil || d <= 0 || d > time.Second {
			t.Errorf("%s layer time %v err %v out of sane range", op.Name(), d, err)
		}
	}
}
