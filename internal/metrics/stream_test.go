package metrics

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// maxBucketBytes bounds one stream's bucket storage for a million
// samples spread over 7 decades: about 8,060 buckets are observed, and
// growth slack adds at most half again.
const maxBucketBytes = 128 << 10

func bucketBytes(s *Stream) int { return 8 * (cap(s.pos.counts) + cap(s.neg.counts)) }

// distributions are the property tests' inputs: latency-like
// lognormal, uniform, heavy-tailed Pareto, magnitudes near the top of
// the float64 range, and a mix with zeros and negatives.
var distributions = []struct {
	name string
	draw func(*rand.Rand) float64
}{
	{"lognormal", func(r *rand.Rand) float64 { return math.Exp(3 + 1.5*r.NormFloat64()) }},
	{"uniform", func(r *rand.Rand) float64 { return 1000 * r.Float64() }},
	{"pareto", func(r *rand.Rand) float64 { return 1 / math.Pow(1-r.Float64(), 1/1.2) }},
	{"huge", func(r *rand.Rand) float64 { return 1e307 * (1 + 16*r.Float64()) }},
	{"signed", func(r *rand.Rand) float64 {
		switch u := r.Float64(); {
		case u < 0.1:
			return 0
		case u < 0.3:
			return -math.Exp(2 + r.NormFloat64())
		default:
			return math.Exp(2 + r.NormFloat64())
		}
	}},
}

func draws(r *rand.Rand, draw func(*rand.Rand) float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = draw(r)
	}
	return xs
}

// exactPercentile is the closest-ranks interpolation over sorted xs
// that Percentile approximates, with the error Percentile may make:
// Alpha of each interpolated sample's magnitude, weighted like the
// sample.
func exactPercentile(sorted []float64, p float64) (want, tol float64) {
	rank := p / 100 * float64(len(sorted)-1)
	lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
	frac := rank - float64(lo)
	if lo == hi {
		return sorted[lo], Alpha * math.Abs(sorted[lo])
	}
	want = sorted[lo]*(1-frac) + sorted[hi]*frac
	return want, Alpha * (math.Abs(sorted[lo])*(1-frac) + math.Abs(sorted[hi])*frac)
}

// TestStreamPercentileWithinAlpha: for every p, Percentile lies within
// Alpha (relative) of the exact closest-ranks interpolation.
func TestStreamPercentileWithinAlpha(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	ps := []float64{0, 0.1, 1, 5, 25, 50, 75, 90, 95, 99, 99.9, 100}
	for range 20 {
		ps = append(ps, 100*r.Float64())
	}
	for _, d := range distributions {
		for _, n := range []int{1, 2, 3, 17, 24, 1000, 20_000} {
			xs := draws(r, d.draw, n)
			s := NewStream()
			for _, x := range xs {
				s.Add(x)
			}
			slices.Sort(xs)
			for _, p := range ps {
				want, tol := exactPercentile(xs, p)
				if got := s.Percentile(p); math.Abs(got-want) > tol*(1+1e-9) {
					t.Errorf("%s n=%d p%v: got %v, want %v ± %v", d.name, n, p, got, want, tol)
				}
			}
		}
	}
}

// TestStreamMergeOrderIndependent: the same samples split into k
// random shards and merged in any order summarize bit-identically to
// one stream fed every sample.
func TestStreamMergeOrderIndependent(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for _, d := range distributions {
		xs := draws(r, d.draw, 20_000)
		one := NewStream()
		for _, x := range xs {
			one.Add(x)
		}
		want := one.Summarize()
		for trial := range 10 {
			k := 1 + trial%8
			shards := make([]*Stream, k)
			for i := range shards {
				shards[i] = NewStream()
			}
			for _, x := range xs {
				shards[r.Intn(k)].Add(x)
			}
			merged := NewStream()
			if trial%2 == 0 {
				for _, i := range r.Perm(k) {
					merged.Merge(shards[i])
				}
			} else {
				// Pairwise tree: shards fold into each other first.
				for len(shards) > 1 {
					i, j := r.Intn(len(shards)), r.Intn(len(shards)-1)
					if j >= i {
						j++
					}
					shards[i].Merge(shards[j])
					shards = slices.Delete(shards, j, j+1)
				}
				merged.Merge(shards[0])
			}
			got := merged.Summarize()
			if got.Count != want.Count || got.Min != want.Min || got.Max != want.Max ||
				got.P50 != want.P50 || got.P90 != want.P90 || got.P95 != want.P95 || got.P99 != want.P99 {
				t.Fatalf("%s k=%d: merged %+v, single stream %+v", d.name, k, got, want)
			}
		}
	}
}

// TestStreamMemorySevenDecades: a million samples over 7 decades keep
// the bucket storage under maxBucketBytes, in random and in ascending
// order (the slowest growth pattern).
func TestStreamMemorySevenDecades(t *testing.T) {
	const n = 1_000_000
	r := rand.New(rand.NewSource(17))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 0.01 * math.Pow(10, 7*r.Float64())
	}
	for _, order := range []string{"random", "ascending"} {
		if order == "ascending" {
			slices.Sort(xs)
		}
		s := NewStream()
		for _, x := range xs {
			s.Add(x)
		}
		if b := bucketBytes(s); b > maxBucketBytes {
			t.Errorf("%s: bucket storage %d B, want <= %d", order, b, maxBucketBytes)
		}
		if s.Count() != n {
			t.Errorf("%s: count %d, want %d", order, s.Count(), n)
		}
	}
}

// TestStreamNonFinite: NaN has no rank and is ignored; infinities are
// counted, bound min and max exactly, and keep percentiles ordered.
func TestStreamNonFinite(t *testing.T) {
	s := NewStream()
	s.Add(math.NaN())
	if s.Count() != 0 {
		t.Fatalf("NaN counted: %d", s.Count())
	}
	for _, v := range []float64{math.Inf(-1), -1, 0, 1, math.Inf(1)} {
		s.Add(v)
	}
	if s.Count() != 5 || !math.IsInf(s.Min(), -1) || !math.IsInf(s.Max(), 1) {
		t.Fatalf("count %d min %v max %v", s.Count(), s.Min(), s.Max())
	}
	if p := s.Percentile(50); p != 0 {
		t.Fatalf("p50 = %v, want 0", p)
	}
	if p := s.Percentile(25); math.Abs(p+1) > Alpha*(1+1e-9) {
		t.Fatalf("p25 = %v, want -1 ± %v", p, Alpha)
	}
}
