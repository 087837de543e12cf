package metrics

import (
	"math"
	"math/rand"
	"testing"
)

// TestBoundedStreamMemoryStaysCapped: a million samples keep the
// bucket storage under maxBucketBytes, while count/sum/mean/min/max
// stay exact and percentiles stay close on a uniform distribution.
func TestBoundedStreamMemoryStaysCapped(t *testing.T) {
	const cap = 4096
	const n = 1_000_000
	s := NewBoundedStream(cap)
	rng := rand.New(rand.NewSource(9))
	var sum float64
	for i := 0; i < n; i++ {
		v := rng.Float64()
		sum += v
		s.Add(v)
	}
	if b := bucketBytes(s); b > maxBucketBytes {
		t.Fatalf("bucket storage %d B, want <= %d", b, maxBucketBytes)
	}
	if s.Count() != n {
		t.Fatalf("count %d, want %d", s.Count(), n)
	}
	if math.Abs(s.Mean()*float64(n)-sum) > 1e-6 {
		t.Fatalf("sum drifted: %v vs %v", s.Mean()*float64(n), sum)
	}
	// Uniform[0,1): p50 ≈ 0.5, p99 ≈ 0.99 within sampling noise.
	if p := s.Percentile(50); math.Abs(p-0.5) > 0.05 {
		t.Errorf("p50 %v too far from 0.5", p)
	}
	if p := s.Percentile(99); math.Abs(p-0.99) > 0.02 {
		t.Errorf("p99 %v too far from 0.99", p)
	}
	if s.Min() < 0 || s.Max() >= 1 {
		t.Errorf("min/max outside the sampled range: %v %v", s.Min(), s.Max())
	}
}

// TestBoundedStreamDeterministic: same inputs, same percentiles —
// stress replays stay reproducible.
func TestBoundedStreamDeterministic(t *testing.T) {
	a, b := NewBoundedStream(64), NewBoundedStream(64)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10_000; i++ {
		v := rng.NormFloat64()
		a.Add(v)
		b.Add(v)
	}
	for _, p := range []float64{10, 50, 95} {
		if a.Percentile(p) != b.Percentile(p) {
			t.Fatalf("p%.0f differs between identical runs", p)
		}
	}
}

// TestBoundedMergeIntoUnbounded mirrors the cluster aggregation path:
// per-instance streams merged into an aggregate must answer exactly
// like one stream fed every sample.
func TestBoundedMergeIntoUnbounded(t *testing.T) {
	agg, ref := NewStream(), NewStream()
	for inst := 0; inst < 4; inst++ {
		b := NewBoundedStream(1 << 10)
		for i := 0; i < 500; i++ {
			v := float64(inst*1000 + i)
			b.Add(v)
			ref.Add(v)
		}
		agg.Merge(b)
	}
	if agg.Count() != ref.Count() || agg.Mean() != ref.Mean() {
		t.Fatalf("merged count/mean mismatch: %d/%v vs %d/%v", agg.Count(), agg.Mean(), ref.Count(), ref.Mean())
	}
	for _, p := range []float64{0, 50, 99, 100} {
		if agg.Percentile(p) != ref.Percentile(p) {
			t.Errorf("p%.0f: merged %v, reference %v", p, agg.Percentile(p), ref.Percentile(p))
		}
	}
}

// TestBoundedMergeCounts: merging keeps count, sum, min and max exact.
func TestBoundedMergeCounts(t *testing.T) {
	src := NewBoundedStream(32)
	for i := 1; i <= 100; i++ {
		src.Add(float64(i))
	}
	dst := NewBoundedStream(32)
	dst.Add(1000)
	dst.Merge(src)
	if dst.Count() != 101 {
		t.Fatalf("count %d, want 101", dst.Count())
	}
	if dst.Mean() != (1000+5050)/101.0 {
		t.Fatalf("mean %v, want 6050/101", dst.Mean())
	}
	if dst.Min() != 1 || dst.Max() != 1000 {
		t.Fatalf("min/max %v/%v, want 1/1000", dst.Min(), dst.Max())
	}
}

func TestJainIndex(t *testing.T) {
	if v := JainIndex([]float64{1, 1, 1, 1}); math.Abs(v-1) > 1e-12 {
		t.Errorf("equal shares: %v, want 1", v)
	}
	// One entity hogging everything over n entities → 1/n.
	if v := JainIndex([]float64{1, 0, 0, 0}); math.Abs(v-0.25) > 1e-12 {
		t.Errorf("single hog: %v, want 0.25", v)
	}
	if v := JainIndex(nil); v != 1 {
		t.Errorf("empty: %v, want 1", v)
	}
	if v := JainIndex([]float64{0, 0}); v != 1 {
		t.Errorf("all-zero: %v, want 1", v)
	}
	if v := JainIndex([]float64{2, 1}); !(v > 0.8 && v < 1) {
		t.Errorf("mild imbalance: %v, want in (0.8, 1)", v)
	}
}
