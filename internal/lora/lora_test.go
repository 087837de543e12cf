package lora

import (
	"testing"
	"time"

	"valora/internal/atmm"
	"valora/internal/lmm"
	"valora/internal/simgpu"
	"valora/internal/train"
)

func TestRegistry(t *testing.T) {
	model := lmm.QwenVL7B()
	adapters := MakeUniformAdapters(model, 4, 64)
	r := NewRegistry(adapters...)
	if r.Len() != 4 {
		t.Fatalf("registry len = %d, want 4", r.Len())
	}
	a, ok := r.Get(2)
	if !ok || a.ID != 2 {
		t.Fatal("lookup by ID failed")
	}
	if _, ok := r.Get(99); ok {
		t.Fatal("unknown ID should miss")
	}
	// Replacement keeps count.
	r.Add(&Adapter{ID: 2, Name: "replacement", Rank: 16, Model: model})
	if r.Len() != 4 {
		t.Fatal("replacement changed the count")
	}
	a, _ = r.Get(2)
	if a.Name != "replacement" {
		t.Fatal("replacement not visible")
	}
}

func TestAdapterBytesAndString(t *testing.T) {
	model := lmm.QwenVL7B()
	a := &Adapter{ID: 1, Name: "x", Rank: 64, Model: model, Head: train.VisionHead}
	if a.Bytes() != model.AdapterBytes(64) {
		t.Fatal("adapter bytes disagree with the model config")
	}
	if a.String() == "" {
		t.Fatal("adapter string empty")
	}
}

func TestPoolResidencyAndEviction(t *testing.T) {
	g := simgpu.A100()
	model := lmm.QwenVL7B()
	adapterBytes := model.AdapterBytes(model.DefaultRank)
	pool := NewPool(g, 2*adapterBytes, false, true) // room for exactly 2
	adapters := MakeUniformAdapters(model, 3, model.DefaultRank)

	if d, err := pool.Require(adapters[:1], 0); err != nil || d <= 0 {
		t.Fatalf("first swap-in must stall (stall %v, err %v)", d, err)
	}
	if d, err := pool.Require(adapters[:1], 0); err != nil || d != 0 {
		t.Fatalf("resident adapter must be free (stall %v, err %v)", d, err)
	}
	pool.Require(adapters[1:2], 0)
	pool.Require(adapters[2:3], 0) // evicts adapter 0 (LRU)
	if pool.Resident(0) {
		t.Fatal("LRU adapter should have been evicted")
	}
	if !pool.Resident(1) || !pool.Resident(2) {
		t.Fatal("recently used adapters should stay resident")
	}
	swapIns, evictions, _, _ := pool.SwapStats()
	if swapIns != 3 || evictions != 1 {
		t.Fatalf("stats = %d swap-ins, %d evictions; want 3 and 1", swapIns, evictions)
	}
	if pool.Used() > pool.Capacity {
		t.Fatal("pool exceeded its capacity")
	}
}

func TestPoolAsyncOverlap(t *testing.T) {
	g := simgpu.A100()
	model := lmm.QwenVL7B()
	adapters := MakeUniformAdapters(model, 1, model.DefaultRank)
	sync := NewPool(g, 8<<30, false, true)
	async := NewPool(g, 8<<30, true, true)

	syncStall, _ := sync.Require(adapters, time.Second)
	asyncStall, _ := async.Require(adapters, time.Second)
	if syncStall <= 0 {
		t.Fatal("synchronous swap must stall")
	}
	if asyncStall != 0 {
		t.Fatalf("async swap with ample overlap should hide fully, stalled %v", asyncStall)
	}
	// Partial overlap: stall is reduced, not eliminated.
	async2 := NewPool(g, 8<<30, true, true)
	full := sync.GPU.HostToDevicePinned(adapters[0].Bytes())
	partial, _ := async2.Require(adapters, full/2)
	if partial <= 0 || partial >= full {
		t.Fatalf("partial overlap stall %v should be in (0, %v)", partial, full)
	}
}

func TestPoolContiguousCheaper(t *testing.T) {
	g := simgpu.A100()
	model := lmm.QwenVL7B()
	adapters := MakeUniformAdapters(model, 1, model.DefaultRank)
	contig := NewPool(g, 8<<30, false, true)
	frag := NewPool(g, 8<<30, false, false)
	cd, _ := contig.Require(adapters, 0)
	fd, _ := frag.Require(adapters, 0)
	if cd >= fd {
		t.Fatal("contiguous pinned pools must swap faster than fragmented pageable ones")
	}
}

func TestSwiftSwitcherUnderTenMs(t *testing.T) {
	g := simgpu.A100()
	for _, model := range lmm.AllModels() {
		sw, err := NewSwiftSwitcher(g, model, nil)
		if err != nil {
			t.Fatal(err)
		}
		d := sw.MergeTime(model.DefaultRank)
		if d <= 0 || d >= 10*time.Millisecond {
			t.Errorf("%s swift merge = %v, want <10 ms (§4.4.1)", model.Name, d)
		}
	}
}

func TestDLoRASwitcherCalibration(t *testing.T) {
	g := simgpu.A100()
	model := lmm.QwenVL7B()
	slow := &DLoRASwitcher{GPU: g, Model: model}
	d := slow.MergeTime(model.DefaultRank)
	// §3.2: dLoRA's switch costs ~53 ms on this setup.
	if d < 35*time.Millisecond || d > 75*time.Millisecond {
		t.Fatalf("dLoRA merge = %v, want ~53 ms", d)
	}
	swift, err := NewSwiftSwitcher(g, model, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(d) / float64(swift.MergeTime(model.DefaultRank)); ratio < 5 {
		t.Fatalf("swift speedup %.1fx, paper claims >5x", ratio)
	}
}

func TestSwitchTimeComposition(t *testing.T) {
	g := simgpu.A100()
	model := lmm.QwenVL7B()
	sw, err := NewSwiftSwitcher(g, model, nil)
	if err != nil {
		t.Fatal(err)
	}
	unmerged := State{Mode: ModeUnmerged, Merged: -1}
	mergedA := State{Mode: ModeMerged, Merged: 0}
	mergedB := State{Mode: ModeMerged, Merged: 1}
	mixtureA := State{Mode: ModeMixture, Merged: 0}

	one := sw.MergeTime(model.DefaultRank)
	if sw.SwitchTime(unmerged, unmerged) != 0 {
		t.Fatal("unmerged→unmerged must be free")
	}
	if sw.SwitchTime(unmerged, mergedA) != one {
		t.Fatal("unmerged→merged must cost one merge")
	}
	if sw.SwitchTime(mergedA, unmerged) != one {
		t.Fatal("merged→unmerged must cost one unmerge")
	}
	if sw.SwitchTime(mergedA, mergedB) != 2*one {
		t.Fatal("merged(A)→merged(B) must cost unmerge+merge")
	}
	if sw.SwitchTime(mergedA, mixtureA) != 0 {
		t.Fatal("merge→mixture with the same adapter must be free (deLoRA reuses the folded weights)")
	}
}

func TestModeStrings(t *testing.T) {
	if ModeMerged.String() != "merge" || ModeUnmerged.String() != "unmerge" || ModeMixture.String() != "mixture" {
		t.Fatal("mode names changed")
	}
	if Mode(9).String() != "unknown-mode" {
		t.Fatal("unknown mode should render as unknown")
	}
}

func newTestOp(t *testing.T) *atmm.ATMM {
	t.Helper()
	op, err := atmm.NewATMM(simgpu.A100(), 4096, 8192)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

func TestExtraCostMerged(t *testing.T) {
	op := newTestOp(t)
	model := lmm.QwenVL7B()
	groups := []TokenGroup{{AdapterID: 3, Rank: 64, Tokens: 100}}
	d, err := ExtraCost(op, &model, ModeMerged, 3, groups, nil)
	if err != nil || d != 0 {
		t.Fatalf("merged mode must be free for the merged adapter: %v err %v", d, err)
	}
	// A foreign adapter in merged mode is a correctness violation.
	groups = append(groups, TokenGroup{AdapterID: 5, Rank: 64, Tokens: 10})
	if _, err := ExtraCost(op, &model, ModeMerged, 3, groups, nil); err == nil {
		t.Fatal("merged mode with a foreign adapter must error")
	}
}

func TestExtraCostUnmergedScalesWithLayers(t *testing.T) {
	op := newTestOp(t)
	model := lmm.QwenVL7B()
	groups := []TokenGroup{{AdapterID: 0, Rank: 64, Tokens: 128}}
	total, err := ExtraCost(op, &model, ModeUnmerged, -1, groups, nil)
	if err != nil {
		t.Fatal(err)
	}
	perLayer, err := op.LayerTime(atmm.Batch{
		Dim: model.Dim, Projections: model.LoRAProjections,
		Groups: []atmm.Group{{AdapterID: 0, Tokens: 128, Rank: 64}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != time.Duration(model.Layers)*perLayer {
		t.Fatalf("unmerged extra %v != layers × per-layer %v", total, time.Duration(model.Layers)*perLayer)
	}
}

// TestMixtureCrossover verifies the Fig. 20 behaviour: the deLoRA
// mixture is cheaper than unmerged while the merged adapter holds the
// majority of tokens, and dearer once the minority dominates.
func TestMixtureCrossover(t *testing.T) {
	op := newTestOp(t)
	model := lmm.QwenVL7B()
	const total = 2048
	cost := func(mergedTokens int) (unmerged, mixture time.Duration) {
		groups := []TokenGroup{
			{AdapterID: 0, Rank: 64, Tokens: mergedTokens},
			{AdapterID: 1, Rank: 64, Tokens: (total - mergedTokens) / 2},
			{AdapterID: 2, Rank: 64, Tokens: (total - mergedTokens) / 2},
		}
		var err error
		unmerged, err = ExtraCost(op, &model, ModeUnmerged, -1, groups, nil)
		if err != nil {
			t.Fatal(err)
		}
		mixture, err = ExtraCost(op, &model, ModeMixture, 0, groups, nil)
		if err != nil {
			t.Fatal(err)
		}
		return unmerged, mixture
	}
	un, mix := cost(3 * total / 4) // merged majority
	if mix >= un {
		t.Fatalf("mixture (%v) should beat unmerged (%v) with a merged majority", mix, un)
	}
	un, mix = cost(total / 4) // merged minority
	if mix <= un {
		t.Fatalf("mixture (%v) should lose to unmerged (%v) with a merged minority", mix, un)
	}
}

func TestExtraCostEmptyGroups(t *testing.T) {
	op := newTestOp(t)
	model := lmm.QwenVL7B()
	if d, err := ExtraCost(op, &model, ModeUnmerged, -1, nil, nil); err != nil || d != 0 {
		t.Fatalf("no groups should cost nothing: %v err %v", d, err)
	}
	// Mixture with only merged-adapter tokens is free (all ride the
	// folded weights).
	groups := []TokenGroup{{AdapterID: 0, Rank: 64, Tokens: 256}}
	if d, err := ExtraCost(op, &model, ModeMixture, 0, groups, nil); err != nil || d != 0 {
		t.Fatalf("all-merged mixture should be free: %v err %v", d, err)
	}
}

// TestExtraCostScratchReuse checks that a caller-owned cost scratch
// gives the same cost as a fresh batch and, once grown, stops the
// batch from allocating.
func TestExtraCostScratchReuse(t *testing.T) {
	op := newTestOp(t)
	model := lmm.QwenVL7B()
	groups := []TokenGroup{
		{AdapterID: 0, Rank: 64, Tokens: 300},
		{AdapterID: 1, Rank: 64, Tokens: 40},
		{AdapterID: 2, Rank: 32, Tokens: 40},
	}
	var scratch CostScratch
	for _, c := range []struct {
		mode   Mode
		merged int
	}{{ModeUnmerged, -1}, {ModeMixture, 0}} {
		want, err := ExtraCost(op, &model, c.mode, c.merged, groups, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ExtraCost(op, &model, c.mode, c.merged, groups, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%v: scratch cost %v, fresh cost %v", c.mode, got, want)
		}
	}
	fresh := testing.AllocsPerRun(100, func() { ExtraCost(op, &model, ModeMixture, 0, groups, nil) })
	reused := testing.AllocsPerRun(100, func() { ExtraCost(op, &model, ModeMixture, 0, groups, &scratch) })
	if reused >= fresh {
		t.Fatalf("scratch batch made %.1f allocs per call, fresh batch %.1f", reused, fresh)
	}
}

func TestExtraCostUnknownMode(t *testing.T) {
	op := newTestOp(t)
	model := lmm.QwenVL7B()
	if _, err := ExtraCost(op, &model, Mode(42), -1, []TokenGroup{{AdapterID: 0, Rank: 64, Tokens: 1}}, nil); err == nil {
		t.Fatal("unknown mode must error")
	}
}
