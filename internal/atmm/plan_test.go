package atmm

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"valora/internal/simgpu"
	"valora/internal/tiling"
)

// refLayerTime is ATMM's per-call path: two Table.Lookup calls and the
// GPU's per-call BatchGEMMTime. The operator must match it exactly for
// every batch, whether the shape hits the table or falls back.
func refLayerTime(a *ATMM, b Batch) (time.Duration, error) {
	if err := b.Validate(); err != nil {
		return 0, err
	}
	var sc segScratch
	shrink, expand := segmentsFor(b, &sc)
	total, rank := b.TotalTokens(), b.MaxRank()
	shrinkCfg, _ := a.table.Lookup(simgpu.Shape{M: total, K: b.Dim, N: rank}, simgpu.TensorCore)
	expandCfg, _ := a.table.Lookup(simgpu.Shape{M: total, K: rank, N: b.Dim}, simgpu.TensorCore)
	ts, err := a.gpu.BatchGEMMTime(shrink, shrinkCfg, simgpu.TensorCore)
	if err != nil {
		return 0, err
	}
	te, err := a.gpu.BatchGEMMTime(expand, expandCfg, simgpu.TensorCore)
	if err != nil {
		return 0, err
	}
	return ts + te + gatherCost(b), nil
}

// randomBatch draws a LoRA batch that hits the profiled grid most of
// the time and misses it in every way a shape can: an unprofiled rank,
// a total M above the grid, or a different hidden dim.
func randomBatch(rng *rand.Rand) Batch {
	dims := []int{4096, 4096, 4096, 5120}
	ranks := []int{16, 32, 64, 128, 16, 32, 64, 128, 8, 48}
	b := Batch{Dim: dims[rng.Intn(len(dims))], Projections: 1 + rng.Intn(4)}
	for i := 0; i < 1+rng.Intn(6); i++ {
		tokens := 1 + rng.Intn(1<<uint(rng.Intn(13)))
		b.Groups = append(b.Groups, Group{AdapterID: i, Tokens: tokens, Rank: ranks[rng.Intn(len(ranks))]})
	}
	return b
}

// bmTokens lists the token counts j·BM−1, j·BM and j·BM+1 for every
// BM of a's compiled configurations, up to eight blocks of M.
func bmTokens(a *ATMM) []int {
	seen := map[int]bool{}
	var tokens []int
	for _, c := range a.plan.cells {
		bm := c.k.Config().BM
		for j := 1; j <= 8; j++ {
			for _, m := range []int{j*bm - 1, j * bm, j*bm + 1} {
				if !seen[m] {
					seen[m] = true
					tokens = append(tokens, m)
				}
			}
		}
	}
	sort.Ints(tokens)
	return tokens
}

// randomWideBatch draws a batch of 1–20 groups whose ranks mix
// profiled and unprofiled values and whose token counts come from
// tokens (see bmTokens) or are single decode tokens.
func randomWideBatch(rng *rand.Rand, tokens []int) Batch {
	ranks := []int{16, 32, 64, 128, 8, 48, 96}
	b := Batch{Dim: 4096, Projections: 1 + rng.Intn(4)}
	if rng.Intn(10) == 0 {
		b.Dim = 5120
	}
	for i := 0; i < 1+rng.Intn(20); i++ {
		m := 1
		if rng.Intn(2) == 0 {
			m = tokens[rng.Intn(len(tokens))]
		}
		r := ranks[rng.Intn(4)]
		if rng.Intn(8) == 0 {
			r = ranks[4+rng.Intn(3)]
		}
		b.Groups = append(b.Groups, Group{AdapterID: i, Tokens: m, Rank: r})
	}
	return b
}

// rankMix reports whether b has groups of profiled and of unprofiled
// ranks on a's plan.
func rankMix(a *ATMM, b Batch) (profiled, unprofiled bool) {
	for _, g := range b.Groups {
		if g.Rank < len(a.plan.rankRow) && a.plan.rankRow[g.Rank] >= 0 {
			profiled = true
		} else {
			unprofiled = true
		}
	}
	return profiled, unprofiled
}

// onGrid reports whether every shape of b is on a's plan: its hidden
// dim, profiled ranks only, and a total M within the last bucket.
func onGrid(a *ATMM, b Batch) bool {
	if profiled, unprofiled := rankMix(a, b); !profiled || unprofiled {
		return false
	}
	return b.Dim == a.plan.dim && tiling.BucketIndex(b.TotalTokens()) < a.plan.buckets
}

// wideWaves reports the wave count of b's expand kernel on a.
func wideWaves(a *ATMM, b Batch) int {
	var sc segScratch
	_, expand := segmentsFor(b, &sc)
	cfg, _ := a.table.Lookup(simgpu.Shape{M: b.TotalTokens(), K: b.MaxRank(), N: b.Dim}, simgpu.TensorCore)
	k, err := a.gpu.Compile(cfg, simgpu.TensorCore)
	if err != nil {
		return 0
	}
	c, err := k.BatchCost(expand)
	if err != nil {
		return 0
	}
	return c.Waves
}

// TestATMMMatchesTableLookup differentially checks the adaptive and
// static operators against refLayerTime on random batches, and their
// BatchTime, single-segment and fused, against the lookup path on a
// shape grid. The adaptive table profiles M up to 2048, so larger
// batches leave the grid; at M bucket 4096 the expand shape meets the
// table's ΔW entry (dim×rank×dim), which the lookup path also returns.
func TestATMMMatchesTableLookup(t *testing.T) {
	g := simgpu.A100()
	adaptive, err := NewATMM(g, 4096, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if p := adaptive.plan; p.buckets != 8 || p.rows != 4 || len(p.cells) != 2*4*8 {
		t.Fatalf("plan grid %d ranks × %d buckets (%d cells), want 4 × 8", p.rows, p.buckets, len(p.cells))
	}
	for i, c := range adaptive.plan.cells {
		if !c.ok {
			t.Fatalf("plan cell %d not compiled", i)
		}
	}
	static := NewStaticATMM(g)
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 3000; i++ {
		b := randomBatch(rng)
		for _, a := range []*ATMM{adaptive, static} {
			want, wantErr := refLayerTime(a, b)
			got, err := a.LayerTime(b)
			if (err == nil) != (wantErr == nil) || got != want {
				t.Fatalf("batch %+v: LayerTime = %v, %v; lookup path %v, %v", b, got, err, want, wantErr)
			}
		}
	}
	// Wider batches: 1–20 groups, profiled and unprofiled ranks mixed
	// in one batch, and token counts at every BM multiple ±1 of the
	// plan's compiled configurations, enough of them to need more
	// than one wave of blocks.
	tokens := bmTokens(adaptive)
	var mixed, grid, multiWave int
	for i := 0; i < 3000; i++ {
		b := randomWideBatch(rng, tokens)
		for _, a := range []*ATMM{adaptive, static} {
			want, wantErr := refLayerTime(a, b)
			got, err := a.LayerTime(b)
			if (err == nil) != (wantErr == nil) || got != want {
				t.Fatalf("batch %+v: LayerTime = %v, %v; lookup path %v, %v", b, got, err, want, wantErr)
			}
		}
		if profiled, unprofiled := rankMix(adaptive, b); profiled && unprofiled {
			mixed++
		}
		if onGrid(adaptive, b) {
			grid++
			if wideWaves(adaptive, b) > 1 {
				multiWave++
			}
		}
	}
	if mixed < 100 || grid < 1000 || multiWave < 100 {
		t.Fatalf("wide batches: %d mix profiled and unprofiled ranks, %d are on the plan's grid, %d of those need more than one wave; want >= 100, 1000, 100",
			mixed, grid, multiWave)
	}
	// The switcher's helpers take arbitrary shapes, ΔW squares among
	// them.
	ms := []int{0, 1, 16, 17, 300, 2048, 2049, 4096, 5120, 9000}
	ranks := []int{8, 16, 32, 64, 128, 4096}
	for _, m := range ms {
		for _, r := range ranks {
			for _, d := range []int{4096, 5120} {
				for _, sh := range []simgpu.Shape{{M: m, K: d, N: r}, {M: m, K: r, N: d}, {M: d, K: r, N: d}} {
					for _, a := range []*ATMM{adaptive, static} {
						cfg, _ := a.table.Lookup(sh, simgpu.TensorCore)
						for _, segs := range [][]simgpu.Segment{
							{{Shape: sh, Count: 1}},
							{{Shape: sh, Count: 3}, {Shape: simgpu.Shape{M: 40, K: d, N: 64}, Count: 2}},
						} {
							want, wantErr := a.gpu.BatchGEMMTime(segs, cfg, simgpu.TensorCore)
							got, err := a.BatchTime(segs, sh)
							if (err == nil) != (wantErr == nil) || got != want {
								t.Fatalf("BatchTime(%v) = %v, %v; lookup path %v, %v", segs, got, err, want, wantErr)
							}
						}
					}
				}
			}
		}
	}
	bad := Batch{Dim: 4096, Projections: 4, Groups: []Group{{AdapterID: 3, Tokens: 0, Rank: 64}}}
	if _, err := adaptive.LayerTime(bad); err == nil {
		t.Fatal("invalid batch accepted")
	}
}

// TestATMMSharedAcrossGoroutines runs one operator from several
// goroutines, as the sharded engine does, and checks every result
// against a serial pass (run it under -race).
func TestATMMSharedAcrossGoroutines(t *testing.T) {
	a, err := NewATMM(simgpu.A100(), 4096, 2048)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	batches := make([]Batch, 200)
	want := make([]time.Duration, len(batches))
	for i := range batches {
		batches[i] = randomBatch(rng)
		if want[i], err = a.LayerTime(batches[i]); err != nil {
			t.Fatal(err)
		}
	}
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(w int) {
			for i := range batches {
				b := batches[(i+w*50)%len(batches)]
				if d, err := a.LayerTime(b); err != nil || d != want[(i+w*50)%len(batches)] {
					errs <- fmt.Errorf("worker %d batch %d: %v, %v", w, i, d, err)
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < 4; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkATMMLayerTime costs a fixed mix of serving-shaped batches:
// 4–8 rank-64 groups on the serving model's plan, about half of them
// one-token decode groups and the rest 32–330-token prefill groups.
func BenchmarkATMMLayerTime(b *testing.B) {
	a, err := NewATMM(simgpu.A100(), 4096, 16*4096)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	batches := make([]Batch, 64)
	for i := range batches {
		batches[i] = Batch{Dim: 4096, Projections: 4}
		for j := 0; j < 4+rng.Intn(5); j++ {
			m := 1
			if rng.Intn(2) == 0 {
				m = 32 + rng.Intn(299)
			}
			batches[i].Groups = append(batches[i].Groups, Group{AdapterID: j, Tokens: m, Rank: 64})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.LayerTime(batches[i%len(batches)]); err != nil {
			b.Fatal(err)
		}
	}
}
