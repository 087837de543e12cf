package tiling

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"valora/internal/simgpu"
)

func TestFullSpaceNonEmptyAndValid(t *testing.T) {
	g := simgpu.A100()
	full := FullSpace(g)
	if len(full) < 100 {
		t.Fatalf("full space too small: %d", len(full))
	}
	for _, cfg := range full {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("full space contains invalid config %v: %v", cfg, err)
		}
		if _, err := g.OccupancyOf(cfg); err != nil {
			t.Fatalf("full space contains infeasible config %v: %v", cfg, err)
		}
	}
}

func TestPrunedSpaceSubset(t *testing.T) {
	g := simgpu.A100()
	full := FullSpace(g)
	pruned := prune(FullSpace(g))
	if len(pruned) == 0 || len(pruned) >= len(full) {
		t.Fatalf("pruned space size %d vs full %d: pruning must be strict and non-empty", len(pruned), len(full))
	}
	seen := make(map[simgpu.TileConfig]bool, len(full))
	for _, cfg := range full {
		seen[cfg] = true
	}
	for _, cfg := range pruned {
		if !seen[cfg] {
			t.Fatalf("pruned config %v not in the full space", cfg)
		}
	}
}

func TestBucketM(t *testing.T) {
	cases := map[int]int{1: 16, 16: 16, 17: 32, 100: 128, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := BucketM(in); got != want {
			t.Errorf("BucketM(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestBucketMProperty(t *testing.T) {
	f := func(m uint16) bool {
		v := int(m)
		b := BucketM(v)
		return b >= v && b >= 16 && b&(b-1) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBucketMEdges checks both edges of every bucket against the
// doubling loop BucketM replaced, and that counts past the largest
// bucket saturate instead of looping forever.
func TestBucketMEdges(t *testing.T) {
	loop := func(m int) int {
		b := 16
		for b < m {
			b <<= 1
		}
		return b
	}
	for _, m := range []int{math.MinInt, -1, 0, 1, 15, 16} {
		if got := BucketM(m); got != 16 || BucketIndex(m) != 0 {
			t.Errorf("BucketM(%d) = %d (index %d), want 16 (index 0)", m, got, BucketIndex(m))
		}
	}
	for i := 1; i <= maxBucketIndex; i++ {
		top := 16 << i
		for _, m := range []int{top/2 + 1, top} {
			if got := BucketM(m); got != top || got != loop(m) || BucketIndex(m) != i {
				t.Errorf("BucketM(%d) = %d (index %d), want %d (index %d)", m, got, BucketIndex(m), top, i)
			}
		}
	}
	for _, m := range []int{16<<maxBucketIndex + 1, math.MaxInt/2 + 2, math.MaxInt} {
		if got := BucketM(m); got != math.MaxInt {
			t.Errorf("BucketM(%d) = %d, want math.MaxInt", m, got)
		}
	}
}

func TestKeyUniqueness(t *testing.T) {
	seen := make(map[Key128]simgpu.Shape)
	for _, m := range []int{16, 32, 64} {
		for _, k := range []int{64, 4096} {
			for _, n := range []int{16, 4096} {
				for _, class := range []simgpu.CoreClass{simgpu.TensorCore, simgpu.CUDACore} {
					s := simgpu.Shape{M: m, K: k, N: n}
					key := MakeKey(s, class)
					if prev, dup := seen[key]; dup && prev != s {
						t.Fatalf("key collision: %v and %v", prev, s)
					}
					seen[key] = s
				}
			}
		}
	}
}

func TestTableLookupHitAndMiss(t *testing.T) {
	tab := NewTable()
	cfg := simgpu.TileConfig{BM: 16, BK: 32, BN: 128, WM: 16, WK: 32, WN: 64, SplitK: 1, Stages: 2}
	tab.Put(Entry{Shape: simgpu.Shape{M: 64, K: 4096, N: 64}, Class: simgpu.TensorCore, Config: cfg})
	if tab.Len() != 1 {
		t.Fatalf("len = %d, want 1", tab.Len())
	}

	// Runtime M=50 buckets to 64 → hit.
	got, ok := tab.Lookup(simgpu.Shape{M: 50, K: 4096, N: 64}, simgpu.TensorCore)
	if !ok || got != cfg {
		t.Fatalf("bucketed lookup missed: ok=%v got=%v", ok, got)
	}
	// Unknown K → miss, fallback.
	got, ok = tab.Lookup(simgpu.Shape{M: 50, K: 5120, N: 64}, simgpu.TensorCore)
	if ok || got != DefaultConfig() {
		t.Fatalf("miss should return fallback, ok=%v got=%v", ok, got)
	}
}

func TestTableEntriesSorted(t *testing.T) {
	tab := NewTable()
	for _, m := range []int{256, 16, 64} {
		tab.Put(Entry{Shape: simgpu.Shape{M: m, K: 4096, N: 64}, Class: simgpu.TensorCore, Config: DefaultConfig()})
	}
	es := tab.Entries()
	for i := 1; i < len(es); i++ {
		if es[i-1].Shape.M > es[i].Shape.M {
			t.Fatalf("entries not sorted: %v", es)
		}
	}
	if tab.String() == "" {
		t.Fatal("table dump empty")
	}
}

func TestSearchFindsPerShapeOptimum(t *testing.T) {
	g := simgpu.A100()
	spec := SearchSpec{HiddenDims: []int{4096}, Ranks: []int{64}, MaxTokens: 64}
	tab, stats, err := Search(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Shapes == 0 || stats.Profiled == 0 || tab.Len() == 0 {
		t.Fatalf("empty search stats %+v", stats)
	}
	// Cross-check one shape against brute force over the pruned space.
	shape := simgpu.Shape{M: 64, K: 4096, N: 64}
	best, ok := tab.Lookup(shape, simgpu.TensorCore)
	if !ok {
		t.Fatal("searched shape missing from the table")
	}
	bestTime, err := g.GEMMTime(shape, best, simgpu.TensorCore)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range prune(FullSpace(g)) {
		d, err := g.GEMMTime(shape, cfg, simgpu.TensorCore)
		if err != nil {
			continue
		}
		if d < bestTime {
			t.Fatalf("search missed a better config %v (%v < %v)", cfg, d, bestTime)
		}
	}
}

func TestSearchDeterministic(t *testing.T) {
	g := simgpu.A100()
	spec := SearchSpec{HiddenDims: []int{4096}, Ranks: []int{16}, MaxTokens: 32}
	t1, _, err := Search(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	t2, _, err := Search(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range t1.Entries() {
		cfg, ok := t2.Lookup(e.Shape, e.Class)
		if !ok || cfg != e.Config {
			t.Fatalf("non-deterministic search for %v: %v vs %v", e.Shape, e.Config, cfg)
		}
	}
}

func TestSearchCoversSwitcherShapes(t *testing.T) {
	g := simgpu.A100()
	tab, _, err := Search(g, DefaultSearchSpec(4096, 2048))
	if err != nil {
		t.Fatal(err)
	}
	// The ΔW shape (dim × rank × dim) must be profiled for the swift
	// switcher.
	if _, ok := tab.Lookup(simgpu.Shape{M: 4096, K: 64, N: 4096}, simgpu.TensorCore); !ok {
		t.Fatal("ΔW shape missing from the search")
	}
	if s := (Stats{FullConfigs: 10, PrunedConfigs: 5}); s.String() == "" {
		t.Fatal("stats string empty")
	}
}

// TestSearchMatchesPerCallProfile checks that the search's table is
// exactly the one a per-call profile produces: every shape × pruned
// configuration costed through GPU.GEMMTime, the fastest kept.
func TestSearchMatchesPerCallProfile(t *testing.T) {
	for _, g := range []*simgpu.GPU{simgpu.A100(), simgpu.A10()} {
		spec := DefaultSearchSpec(4096, 2048)
		spec.Classes = []simgpu.CoreClass{simgpu.TensorCore, simgpu.CUDACore}
		got, stats, err := Search(g, spec)
		if err != nil {
			t.Fatal(err)
		}
		want := NewTable()
		profiled := 0
		pruned := prune(FullSpace(g))
		for _, shape := range spec.shapes() {
			for _, class := range spec.Classes {
				var best simgpu.TileConfig
				var bestTime time.Duration
				found := false
				for _, cfg := range pruned {
					d, err := g.GEMMTime(shape, cfg, class)
					if err != nil {
						continue
					}
					profiled++
					if !found || d < bestTime {
						best, bestTime, found = cfg, d, true
					}
				}
				if !found {
					t.Fatalf("%s: no feasible config for %v", g.Name, shape)
				}
				want.Put(Entry{Shape: shape, Class: class, Config: best, Time: bestTime.Seconds()})
			}
		}
		if got.String() != want.String() {
			t.Fatalf("%s: search table differs from the per-call profile", g.Name)
		}
		if stats.Profiled != profiled {
			t.Fatalf("%s: search profiled %d, per-call profile %d", g.Name, stats.Profiled, profiled)
		}
	}
}
