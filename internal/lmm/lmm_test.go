package lmm

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"valora/internal/simgpu"
)

func TestTable2Configs(t *testing.T) {
	qwen := QwenVL7B()
	if qwen.Layers != 32 || qwen.Dim != 4096 || qwen.WeightBytes != 18<<30 {
		t.Fatalf("Qwen-VL-7B config drifted from Table 2: %+v", qwen)
	}
	l13 := LLaVA13B()
	if l13.Layers != 40 || l13.Dim != 5120 || l13.WeightBytes != 24<<30 {
		t.Fatalf("LLaVA-13B config drifted from Table 2: %+v", l13)
	}
	if len(AllModels()) != 3 {
		t.Fatal("expected three evaluation models")
	}
	if qwen.String() == "" {
		t.Fatal("config string empty")
	}
}

func TestModelByteAccounting(t *testing.T) {
	m := QwenVL7B()
	// KV per token: 2 (K,V) × layers × dim × fp16.
	if got, want := m.KVBytesPerToken(), int64(2*32*4096*2); got != want {
		t.Fatalf("KV bytes per token = %d, want %d", got, want)
	}
	// Adapter ≪ ΔW ≪ weights (the §4.4.1 hierarchy).
	a := m.AdapterBytes(m.DefaultRank)
	dw := m.DeltaWBytes()
	if !(a < dw && dw < m.WeightBytes) {
		t.Fatalf("byte hierarchy broken: adapter %d, ΔW %d, weights %d", a, dw, m.WeightBytes)
	}
	// Adapter scales linearly with rank.
	if m.AdapterBytes(128) != 2*m.AdapterBytes(64) {
		t.Fatal("adapter bytes must scale linearly with rank")
	}
}

func TestEngineDecodeIsWeightBound(t *testing.T) {
	g := simgpu.A100()
	e := NewEngine(g, QwenVL7B())
	d := e.DecodeStepTime(8, 8*512)
	// Weight streaming alone: 2 bytes/param over HBM.
	weights := time.Duration(float64(e.Model.LLMParams) * 2 / g.HBMBandwidth * 1e9)
	if d < weights {
		t.Fatalf("decode step %v cannot beat the weight-streaming bound %v", d, weights)
	}
	if d > 5*weights {
		t.Fatalf("decode step %v implausibly far above the bound %v", d, weights)
	}
	// Batching decodes is nearly free: 32 sequences ≪ 32× one sequence.
	d32 := e.DecodeStepTime(32, 32*512)
	d1 := e.DecodeStepTime(1, 512)
	if float64(d32) > 1.6*float64(d1) {
		t.Fatalf("batched decode (%v) should cost close to single decode (%v)", d32, d1)
	}
}

func TestEnginePrefillComputeBound(t *testing.T) {
	e := NewEngine(simgpu.A100(), QwenVL7B())
	// The paper's §6.2 asymmetry: input tokens < 1 ms each, output
	// tokens tens of ms each.
	perInput := e.PrefillTime(4096, 0) / 4096
	if perInput > time.Millisecond {
		t.Fatalf("per-input-token cost %v, want <1 ms", perInput)
	}
	perOutput := e.DecodeStepTime(1, 512)
	if perOutput < 5*time.Millisecond {
		t.Fatalf("per-output-token cost %v, want >=5 ms", perOutput)
	}
}

func TestEngineMonotonicInTokens(t *testing.T) {
	e := NewEngine(simgpu.A100(), QwenVL7B())
	var prev time.Duration
	for _, n := range []int{128, 512, 2048, 8192} {
		d := e.PrefillTime(n, 1)
		if d < prev {
			t.Fatalf("prefill time decreased at %d tokens", n)
		}
		prev = d
	}
}

func TestEngineVisualEncoderCost(t *testing.T) {
	e := NewEngine(simgpu.A100(), QwenVL7B())
	with := e.PrefillTime(512, 2)
	without := e.PrefillTime(512, 0)
	if with <= without {
		t.Fatal("image encoding must add time")
	}
	if e.IterationTime(IterationLoad{}) != 0 {
		t.Fatal("empty iteration should cost nothing")
	}
}

func TestEngine13BSlower(t *testing.T) {
	g := simgpu.A100()
	small := NewEngine(g, QwenVL7B())
	big := NewEngine(g, LLaVA13B())
	if big.DecodeStepTime(4, 1024) <= small.DecodeStepTime(4, 1024) {
		t.Fatal("13B decode must be slower than 7B")
	}
}

// liveSeqs counts a cache's allocated sequences.
func liveSeqs(k *KVCache) int { return len(k.seqs) - len(k.spare) }

func TestKVCacheLifecycle(t *testing.T) {
	m := QwenVL7B()
	kv := NewKVCache(m, 64*m.KVBytesPerToken()*BlockSize) // 64 blocks
	if kv.TotalBlocks() != 64 {
		t.Fatalf("total blocks = %d, want 64", kv.TotalBlocks())
	}
	h, err := kv.Allocate(100, 0) // 7 blocks
	if err != nil {
		t.Fatal(err)
	}
	if h == 0 {
		t.Fatal("Allocate returned the zero handle")
	}
	if kv.Tokens(h) != 100 {
		t.Fatalf("tokens = %d, want 100", kv.Tokens(h))
	}
	if kv.FreeBlocks() != 64-7 {
		t.Fatalf("free = %d, want 57", kv.FreeBlocks())
	}
	// Extending within the last partial block takes no new block.
	for i := 0; i < 12; i++ {
		if err := kv.Extend(h); err != nil {
			t.Fatal(err)
		}
	}
	if kv.FreeBlocks() != 57 {
		t.Fatalf("extend within block should not allocate, free=%d", kv.FreeBlocks())
	}
	if err := kv.Extend(h); err != nil { // token 113 crosses into block 8
		t.Fatal(err)
	}
	if kv.FreeBlocks() != 56 {
		t.Fatalf("extend across block should allocate, free=%d", kv.FreeBlocks())
	}
	kv.Release(h)
	if kv.FreeBlocks() != 64 || kv.Usage() != 0 || liveSeqs(kv) != 0 {
		t.Fatal("release must return every block")
	}
}

func TestKVCacheErrors(t *testing.T) {
	m := QwenVL7B()
	kv := NewKVCache(m, 4*m.KVBytesPerToken()*BlockSize) // 4 blocks
	if _, err := kv.Allocate(100, 0); err == nil {
		t.Fatal("over-capacity allocation should fail")
	}
	if liveSeqs(kv) != 0 {
		t.Fatal("a failed allocation must not hold a record")
	}
	if _, err := kv.Allocate(32, 0); err != nil {
		t.Fatal(err)
	}
	if err := kv.Extend(0); err == nil {
		t.Fatal("extending the zero handle should fail")
	}
	if err := kv.Extend(makeHandle(99, 0)); err == nil {
		t.Fatal("extending an unknown handle should fail")
	}
	// Fill the cache, then extension must fail cleanly.
	h, err := kv.Allocate(32, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := kv.Extend(h); err == nil {
		t.Fatal("extension past capacity should fail")
	}
}

// TestKVCacheStaleHandles pins the handle contract: a released handle
// is stale for Extend and Tokens, a second Release (or one of the zero
// handle) is a no-op, and the sequence that reuses the record gets a
// handle distinct from the stale one.
func TestKVCacheStaleHandles(t *testing.T) {
	m := QwenVL7B()
	kv := NewKVCache(m, 16*m.KVBytesPerToken()*BlockSize)
	kv.Release(0) // no-op on an empty cache
	h, err := kv.Allocate(20, 0)
	if err != nil {
		t.Fatal(err)
	}
	kv.Release(h)
	if err := kv.Extend(h); err == nil {
		t.Fatal("extending a released handle should fail")
	}
	if kv.Tokens(h) != 0 {
		t.Fatal("a released handle must report no tokens")
	}
	kv.Release(h) // second release: no-op
	kv.Release(0)
	if kv.FreeBlocks() != 16 || liveSeqs(kv) != 0 {
		t.Fatalf("double release corrupted the cache: free=%d live=%d", kv.FreeBlocks(), liveSeqs(kv))
	}
	h2, err := kv.Allocate(40, 0) // reuses the released record
	if err != nil {
		t.Fatal(err)
	}
	if h2 == h {
		t.Fatal("a recycled record must get a fresh handle")
	}
	kv.Release(h) // the stale handle must not free the new sequence
	if kv.Tokens(h2) != 40 || kv.FreeBlocks() != 16-3 {
		t.Fatalf("stale release touched the live sequence: tokens=%d free=%d", kv.Tokens(h2), kv.FreeBlocks())
	}
}

func TestKVCacheSharedTokens(t *testing.T) {
	m := QwenVL7B()
	kv := NewKVCache(m, 64*m.KVBytesPerToken()*BlockSize)
	// 256 shared tokens (prefix cache) occupy no owned blocks.
	h, err := kv.Allocate(300, 256)
	if err != nil {
		t.Fatal(err)
	}
	owned := (300 - 256 + BlockSize - 1) / BlockSize
	if kv.FreeBlocks() != 64-owned {
		t.Fatalf("shared tokens should not consume blocks: free=%d", kv.FreeBlocks())
	}
	if got := kv.Shared(h); got != 256 {
		t.Fatalf("Shared = %d, want 256", got)
	}
	kv.Release(h)
	if kv.Shared(h) != 0 || kv.Shared(0) != 0 {
		t.Fatal("a released or zero handle must report no shared tokens")
	}
}

func TestKVCacheInvariant(t *testing.T) {
	m := QwenVL7B()
	f := func(sizes []uint8) bool {
		kv := NewKVCache(m, 128*m.KVBytesPerToken()*BlockSize)
		var live []SeqHandle
		for _, s := range sizes {
			if h, err := kv.Allocate(int(s)+1, 0); err == nil {
				live = append(live, h)
			}
			if len(live) > 4 {
				kv.Release(live[0])
				live = live[1:]
			}
			if kv.FreeBlocks() < 0 || kv.FreeBlocks() > kv.TotalBlocks() || liveSeqs(kv) != len(live) {
				return false
			}
		}
		for _, l := range live {
			kv.Release(l)
		}
		return kv.FreeBlocks() == kv.TotalBlocks()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestKVCacheRecyclingKeepsBlockCounts checks that reusing released
// sequence records changes no block accounting: a random
// Allocate/Extend/Release run matches a model of the free block count
// and of every sequence's owned blocks and tokens after each
// operation. Released handles are kept and probed, so a recycled
// record that aliased a stale handle would show up as a live answer
// to a dead name.
func TestKVCacheRecyclingKeepsBlockCounts(t *testing.T) {
	m := QwenVL7B()
	kv := NewKVCache(m, 96*m.KVBytesPerToken()*BlockSize)
	free := kv.TotalBlocks()
	owned := map[SeqHandle]int{}
	tokens := map[SeqHandle]int{}
	rng := rand.New(rand.NewSource(1))
	var live, dead []SeqHandle
	peak := 0
	for op := 1; op <= 3000; op++ {
		switch c := rng.Intn(3); {
		case c == 0 || len(live) == 0:
			n := 1 + rng.Intn(80)
			need := (n + BlockSize - 1) / BlockSize
			h, err := kv.Allocate(n, 0)
			if err != nil {
				if need <= free {
					t.Fatalf("op %d: allocate: %v", op, err)
				}
				continue
			}
			if need > free {
				t.Fatalf("op %d: allocated %d blocks with %d free", op, need, free)
			}
			if _, dup := owned[h]; dup || slices.Contains(dead, h) {
				t.Fatalf("op %d: handle %#x reissued", op, uint64(h))
			}
			owned[h] = need
			free -= need
			tokens[h] = n
			live = append(live, h)
			peak = max(peak, len(live))
		case c == 1:
			s := live[rng.Intn(len(live))]
			if err := kv.Extend(s); err != nil {
				if tokens[s]%BlockSize != 0 || free > 0 {
					t.Fatalf("op %d: extend: %v", op, err)
				}
				continue // exhausted: the model takes nothing either
			}
			if tokens[s]%BlockSize == 0 {
				owned[s]++
				free--
			}
			tokens[s]++
		default:
			k := rng.Intn(len(live))
			s := live[k]
			live = slices.Delete(live, k, k+1)
			kv.Release(s)
			free += owned[s]
			delete(owned, s)
			delete(tokens, s)
			dead = append(dead, s)
		}
		if kv.FreeBlocks() != free {
			t.Fatalf("op %d: %d free blocks, the model has %d", op, kv.FreeBlocks(), free)
		}
		for s, blocks := range owned {
			if a := kv.seq(s); a == nil || a.blocks != blocks || a.tokens != tokens[s] {
				t.Fatalf("op %d: sequence %#x diverges from the model (%d blocks, %d tokens)", op, uint64(s), blocks, tokens[s])
			}
		}
		if len(dead) > 0 {
			if d := dead[rng.Intn(len(dead))]; kv.Tokens(d) != 0 || kv.Extend(d) == nil {
				t.Fatalf("op %d: released handle %#x still answers", op, uint64(d))
			}
		}
	}
	// A record is created only when none is spare, so the record slice
	// never exceeds the peak number of live sequences.
	if len(kv.seqs) != peak {
		t.Fatalf("%d sequence records for a peak of %d live sequences", len(kv.seqs), peak)
	}
}

// TestKVCacheSteadyStateZeroAlloc is the allocation gate on the KV
// hot path: once released sequence records are recycled, a sequence's
// whole Allocate/Extend/Release life allocates nothing.
func TestKVCacheSteadyStateZeroAlloc(t *testing.T) {
	m := QwenVL7B()
	kv := NewKVCache(m, 256*m.KVBytesPerToken()*BlockSize)
	life := func() {
		var hs [8]SeqHandle
		for i := range hs {
			h, err := kv.Allocate(40+7*i, 0)
			if err != nil {
				t.Fatal(err)
			}
			hs[i] = h
		}
		for step := 0; step < 40; step++ {
			for _, h := range hs {
				if err := kv.Extend(h); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, h := range hs {
			kv.Release(h)
		}
	}
	life() // warm: grow the records and the spare list
	if got := testing.AllocsPerRun(100, life); got != 0 {
		t.Fatalf("%.1f allocs per sequence batch at steady state, want 0", got)
	}
}

func TestPrefixCacheHitMissLRU(t *testing.T) {
	p := NewPrefixCache(2)
	if got := p.Lookup(1, 256); got != 0 {
		t.Fatal("first lookup must miss")
	}
	if got := p.Lookup(1, 256); got != 256 {
		t.Fatalf("second lookup should hit with 256 tokens, got %d", got)
	}
	p.Lookup(2, 256)
	p.Lookup(3, 256) // evicts image 1 (LRU)
	if got := p.Lookup(1, 256); got != 0 {
		t.Fatal("evicted image should miss")
	}
	hits, misses := p.Stats()
	if hits != 1 || misses != 4 {
		t.Fatalf("stats = %d/%d, want 1/4", hits, misses)
	}
	if p.Len() != 2 {
		t.Fatalf("len = %d, want 2", p.Len())
	}
}

func TestPrefixCacheTouchRefreshesLRU(t *testing.T) {
	p := NewPrefixCache(2)
	p.Lookup(1, 1)
	p.Lookup(2, 1)
	p.Lookup(1, 1) // refresh image 1
	p.Lookup(3, 1) // should evict image 2, not 1
	if p.Lookup(1, 1) != 1 {
		t.Fatal("refreshed entry was evicted")
	}
}

func TestPrefixCacheDisabled(t *testing.T) {
	p := NewPrefixCache(0)
	p.Lookup(1, 256)
	if got := p.Lookup(1, 256); got != 0 {
		t.Fatal("disabled cache must always miss")
	}
	if p.HitRate() != 0 {
		t.Fatal("disabled cache hit rate must be 0")
	}
	if NewPrefixCache(4).Lookup(0, 256) != 0 {
		t.Fatal("image 0 is unique and must miss")
	}
}
