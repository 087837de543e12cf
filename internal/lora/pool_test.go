package lora

import (
	"errors"
	"math/rand"
	"testing"

	"valora/internal/idtab"
	"valora/internal/lmm"
	"valora/internal/simgpu"
)

// checkPool asserts the pool's bookkeeping invariants (used == Σ
// resident, list ↔ index consistency, budget respected) after a
// mutation.
func checkPool(t *testing.T, p *Pool) {
	t.Helper()
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// requireOne swaps a single adapter in, asserting invariants.
func requireOne(t *testing.T, p *Pool, a *Adapter) error {
	t.Helper()
	_, err := p.Require([]*Adapter{a}, 0)
	checkPool(t, p)
	return err
}

func TestPoolPinnedLRU(t *testing.T) {
	g := simgpu.A100()
	model := lmm.QwenVL7B()
	ab := model.AdapterBytes(model.DefaultRank)
	adapters := MakeUniformAdapters(model, 6, model.DefaultRank)
	a, b, c, d := adapters[0], adapters[1], adapters[2], adapters[3]

	cases := []struct {
		name     string
		capacity int64
		run      func(t *testing.T, p *Pool)
	}{
		{
			name:     "evict-under-pin refused",
			capacity: 2 * ab,
			run: func(t *testing.T, p *Pool) {
				requireOne(t, p, a)
				requireOne(t, p, b)
				p.Merged = a.ID // a is the LRU victim candidate, but merged
				if err := requireOne(t, p, c); err != nil {
					t.Fatalf("c should fit by evicting unpinned b: %v", err)
				}
				if !p.Resident(a.ID) || p.Resident(b.ID) || !p.Resident(c.ID) {
					t.Fatalf("eviction chose wrong victim: a=%v b=%v c=%v",
						p.Resident(a.ID), p.Resident(b.ID), p.Resident(c.ID))
				}
			},
		},
		{
			name:     "fully pinned pool defers instead of over-committing",
			capacity: ab,
			run: func(t *testing.T, p *Pool) {
				requireOne(t, p, a)
				p.Merged = a.ID
				err := requireOne(t, p, c)
				var ce *CapacityError
				if !errors.As(err, &ce) || len(ce.Deferred) != 1 || ce.Deferred[0] != c.ID {
					t.Fatalf("want deferred [%d], got %v", c.ID, err)
				}
				if p.Resident(c.ID) || p.Used() > p.Capacity {
					t.Fatalf("deferred swap-in leaked into the pool (used %d)", p.Used())
				}
				// Unmerging unblocks the same swap-in.
				p.Merged = -1
				if err := requireOne(t, p, c); err != nil {
					t.Fatalf("unpinned pool should admit c: %v", err)
				}
				if p.Resident(a.ID) || !p.Resident(c.ID) {
					t.Fatal("the unmerged entry should be the victim")
				}
			},
		},
		{
			name:     "oversized adapter rejected, pool untouched",
			capacity: ab - 1,
			run: func(t *testing.T, p *Pool) {
				err := requireOne(t, p, a)
				var ce *CapacityError
				if !errors.As(err, &ce) || len(ce.Oversized) != 1 || ce.Oversized[0] != a.ID {
					t.Fatalf("want oversized [%d], got %v", a.ID, err)
				}
				if p.Resident(a.ID) || p.Used() != 0 {
					t.Fatalf("oversized adapter leaked: used %d", p.Used())
				}
				swapIns, evictions, _, stalled := p.SwapStats()
				if swapIns != 0 || evictions != 0 || stalled != 0 {
					t.Fatal("rejected swap-in must not count as a swap")
				}
			},
		},
		{
			name:     "one Require call cannot evict its own batch",
			capacity: 2 * ab,
			run: func(t *testing.T, p *Pool) {
				_, err := p.Require([]*Adapter{a, b, c}, 0)
				checkPool(t, p)
				var ce *CapacityError
				if !errors.As(err, &ce) || len(ce.Deferred) != 1 || ce.Deferred[0] != c.ID {
					t.Fatalf("want c deferred (a and b batch-pinned), got %v", err)
				}
				if !p.Resident(a.ID) || !p.Resident(b.ID) {
					t.Fatal("a later batch member evicted an earlier one mid-call")
				}
				// The per-call pins are released afterwards: a lone
				// Require(c) may now evict the LRU entry a.
				if err := requireOne(t, p, c); err != nil {
					t.Fatalf("post-call require should succeed: %v", err)
				}
				if p.Resident(a.ID) || !p.Resident(b.ID) || !p.Resident(c.ID) {
					t.Fatal("per-call pins leaked past the call")
				}
			},
		},
		{
			name:     "hopeless swap-in defers without evicting bystanders",
			capacity: 2 * ab,
			run: func(t *testing.T, p *Pool) {
				requireOne(t, p, a)
				requireOne(t, p, b)
				p.Merged = a.ID
				// big needs both slots, but a is merged: deferring is the
				// only option — and b must not be sacrificed on the way.
				big := &Adapter{ID: 99, Name: "big", Rank: 2 * model.DefaultRank, Model: model}
				if big.Bytes() != 2*ab {
					t.Fatalf("test setup: big adapter is %d bytes, want %d", big.Bytes(), 2*ab)
				}
				err := requireOne(t, p, big)
				var ce *CapacityError
				if !errors.As(err, &ce) || len(ce.Deferred) != 1 || ce.Deferred[0] != big.ID {
					t.Fatalf("want big deferred, got %v", err)
				}
				if !p.Resident(b.ID) {
					t.Fatal("deferred swap-in evicted a bystander for nothing")
				}
				if _, evictions, _, _ := p.SwapStats(); evictions != 0 {
					t.Fatalf("hopeless swap-in caused %d evictions", evictions)
				}
			},
		},
		{
			name:     "touch ordering drives eviction",
			capacity: 2 * ab,
			run: func(t *testing.T, p *Pool) {
				requireOne(t, p, a)
				requireOne(t, p, b)
				requireOne(t, p, a) // touch: a becomes MRU
				requireOne(t, p, c) // must evict b, not a
				if !p.Resident(a.ID) || p.Resident(b.ID) || !p.Resident(c.ID) {
					t.Fatal("touch did not refresh LRU order")
				}
			},
		},
		{
			name:     "an adapter merged before it is resident is protected",
			capacity: 2 * ab,
			run: func(t *testing.T, p *Pool) {
				p.Merged = d.ID // merged before it is resident
				requireOne(t, p, d)
				requireOne(t, p, a)
				if err := requireOne(t, p, b); err != nil {
					t.Fatalf("b should evict unmerged a: %v", err)
				}
				if !p.Resident(d.ID) || p.Resident(a.ID) {
					t.Fatal("Merged did not protect d")
				}
				p.Merged = -1
				requireOne(t, p, c) // now d is evictable (LRU)
				if p.Resident(d.ID) {
					t.Fatal("an unmerged LRU entry should evict")
				}
			},
		},
		{
			name:     "a batch naming one adapter twice swaps it in once",
			capacity: 2 * ab,
			run: func(t *testing.T, p *Pool) {
				if _, err := p.Require([]*Adapter{a, b, a}, 0); err != nil {
					t.Fatal(err)
				}
				if swaps, _, _, _ := p.SwapStats(); swaps != 2 || p.Used() != 2*ab {
					t.Fatalf("duplicate batch member swapped twice: %d swaps, %d bytes used", swaps, p.Used())
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPool(g, tc.capacity, false, true)
			tc.run(t, p)
			checkPool(t, p)
		})
	}
}

// TestPoolRequireSteadyStateAllocFree pins down the O(1) rework's
// allocation behaviour: once the working set is resident, Require is
// pure pointer surgery (touches) and allocates nothing.
func TestPoolRequireSteadyStateAllocFree(t *testing.T) {
	g := simgpu.A100()
	model := lmm.QwenVL7B()
	adapters := MakeUniformAdapters(model, 8, model.DefaultRank)
	p := NewPool(g, 16*model.AdapterBytes(model.DefaultRank), true, true)
	if _, err := p.Require(adapters, 0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := p.Require(adapters, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Require allocated %.1f times per call, want 0", allocs)
	}
	checkPool(t, p)
}

// TestPoolChurnInvariants hammers a small pool with a rotating working
// set and validates the bookkeeping after every call.
func TestPoolChurnInvariants(t *testing.T) {
	g := simgpu.A100()
	model := lmm.QwenVL7B()
	adapters := MakeUniformAdapters(model, 12, model.DefaultRank)
	// IDs on both sides of the pool's dense range: negative, the dense
	// edges, and sparse ones far past it. -1 is Merged's "none".
	ids := []int{-2, -(1 << 40), 0, 1, 7, idtab.DenseIDs - 1, idtab.DenseIDs, idtab.DenseIDs + 9, 1 << 40, 300, 4096, -5}
	for i, a := range adapters {
		a.ID = ids[i]
	}
	p := NewPool(g, 3*model.AdapterBytes(model.DefaultRank), false, true)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		if rng.Intn(6) == 0 {
			// Merge a random adapter, or none, at about one call in six.
			p.Merged = -1
			if rng.Intn(4) > 0 {
				p.Merged = ids[rng.Intn(len(ids))]
			}
			continue
		}
		merged := p.Resident(p.Merged)
		batch := []*Adapter{adapters[i%12], adapters[(i*5+1)%12], adapters[rng.Intn(12)]}
		// Deferred swap-ins are legitimate here (the merged adapter
		// can crowd a 3-slot pool); anything else is a bug, and the
		// invariants must hold either way.
		if _, err := p.Require(batch[:1+rng.Intn(3)], 0); err != nil {
			var ce *CapacityError
			if !errors.As(err, &ce) || len(ce.Oversized) > 0 {
				t.Fatalf("iter %d: %v", i, err)
			}
		}
		checkPool(t, p)
		if merged && !p.Resident(p.Merged) {
			t.Fatalf("iter %d: Require evicted the merged adapter %d", i, p.Merged)
		}
	}
	if swapIns, evictions, _, _ := p.SwapStats(); swapIns < 100 || evictions < 100 {
		t.Fatalf("%d swap-ins and %d evictions: the pool did not churn", swapIns, evictions)
	}
}
