package atmm

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"valora/internal/simgpu"
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

// TestATMMMatchesTableLookup differentially checks the adaptive and
// static operators against refLayerTime on random batches, and their
// GEMMTime and BatchTime against the lookup path on a shape grid. The
// adaptive table profiles M up to 2048, so larger batches leave the
// grid; at M bucket 4096 the expand shape meets the table's ΔW entry
// (dim×rank×dim), which the lookup path also returns.
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
						want, wantErr := a.gpu.GEMMTime(sh, cfg, simgpu.TensorCore)
						got, err := a.GEMMTime(sh)
						if (err == nil) != (wantErr == nil) || got != want {
							t.Fatalf("GEMMTime(%v) = %v, %v; lookup path %v, %v", sh, got, err, want, wantErr)
						}
						segs := []simgpu.Segment{{Shape: sh, Count: 3}, {Shape: simgpu.Shape{M: 40, K: d, N: 64}, Count: 2}}
						want, wantErr = a.gpu.BatchGEMMTime(segs, cfg, simgpu.TensorCore)
						got, err = a.BatchTime(segs, sh)
						if (err == nil) != (wantErr == nil) || got != want {
							t.Fatalf("BatchTime(%v) = %v, %v; lookup path %v, %v", sh, got, err, want, wantErr)
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
