package tiling

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"

	"valora/internal/simgpu"
)

// Key128 is the 128-bit hash-table key the VaLoRA implementation (§5)
// uses to map input matrix shapes to tiling configurations. The two
// GEMM operand shapes (M,K) and (K,N) plus the core class pack into
// the high/low words.
type Key128 struct {
	Hi, Lo uint64
}

// MakeKey builds the table key for a (bucketed) shape.
func MakeKey(s simgpu.Shape, class simgpu.CoreClass) Key128 {
	return Key128{
		Hi: uint64(uint32(s.M))<<32 | uint64(uint32(s.K)),
		Lo: uint64(uint32(s.N))<<32 | uint64(uint32(class)),
	}
}

// BucketM rounds a runtime token count up to the next profiled bucket
// (powers of two, minimum 16). Profiling every exact M is unnecessary:
// the optimal configuration is stable within a factor-of-two band,
// which is also how the paper steps the search space. A count above
// the largest power of two an int holds saturates to math.MaxInt,
// which no profiled shape carries.
func BucketM(m int) int {
	i := BucketIndex(m)
	if i > maxBucketIndex {
		return math.MaxInt
	}
	return 16 << i
}

// BucketIndex reports the index of m's bucket on the profiled grid:
// BucketM(m) == 16<<BucketIndex(m) for every m up to the largest
// bucket.
func BucketIndex(m int) int {
	if m <= 16 {
		return 0
	}
	return bits.Len(uint(m-1)) - 4
}

// maxBucketIndex is the last bucket index whose 16<<i is a positive
// int.
const maxBucketIndex = bits.UintSize - 6

// Entry is one profiled (shape → best config) pair.
type Entry struct {
	Shape  simgpu.Shape
	Class  simgpu.CoreClass
	Config simgpu.TileConfig
	Time   float64 // profiled latency, seconds (for reports)
}

// Table is the shape→optimal-config hash table built offline by
// Search and consulted by ATMM at runtime.
type Table struct {
	entries  map[Key128]Entry
	fallback simgpu.TileConfig
}

// NewTable returns an empty table with the default fallback config.
func NewTable() *Table {
	return &Table{entries: make(map[Key128]Entry), fallback: DefaultConfig()}
}

// Put records the optimal configuration for a profiled shape.
func (t *Table) Put(e Entry) {
	t.entries[MakeKey(e.Shape, e.Class)] = e
}

// Len reports the number of profiled shapes.
func (t *Table) Len() int { return len(t.entries) }

// Lookup returns the optimal configuration for a runtime shape,
// bucketing M to the profiled grid. The boolean reports whether the
// shape hit the table; on a miss the fallback configuration is
// returned.
func (t *Table) Lookup(s simgpu.Shape, class simgpu.CoreClass) (simgpu.TileConfig, bool) {
	key := MakeKey(simgpu.Shape{M: BucketM(s.M), K: s.K, N: s.N}, class)
	if e, ok := t.entries[key]; ok {
		return e.Config, true
	}
	return t.fallback, false
}

// Entries returns all profiled entries sorted by (K, N, M) for stable
// reporting.
func (t *Table) Entries() []Entry {
	out := make([]Entry, 0, len(t.entries))
	for _, e := range t.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Shape.K != b.Shape.K {
			return a.Shape.K < b.Shape.K
		}
		if a.Shape.N != b.Shape.N {
			return a.Shape.N < b.Shape.N
		}
		if a.Shape.M != b.Shape.M {
			return a.Shape.M < b.Shape.M
		}
		return a.Class < b.Class
	})
	return out
}

// String renders a compact dump of the table.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tiling table: %d entries\n", t.Len())
	for _, e := range t.Entries() {
		fmt.Fprintf(&b, "  %v %v -> %v (%.1f us)\n", e.Shape, e.Class, e.Config, e.Time*1e6)
	}
	return b.String()
}
