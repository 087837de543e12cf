package metrics

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// refBucket is the oracle the table index must equal: the bucket
// index computed straight from math.Log, as Stream defined it before
// the tables.
func refBucket(a float64) int {
	return int(math.Ceil(math.Log(min(a, math.MaxFloat64)) * invLnGamma))
}

// checkBucket fails t when the table index of a differs from the
// oracle's. (It skips t.Helper, whose cost would dominate the
// 20M-float loop.)
func checkBucket(t testing.TB, a float64) {
	if got, want := bucketOf(a), refBucket(a); got != want {
		t.Fatalf("bucketOf(%v) [bits %#x] = %d, want %d", a, math.Float64bits(a), got, want)
	}
}

// TestBucketOfMatchesLogRandom compares the table index with the
// formula on 10M positive floats with uniformly random bits (every
// exponent, subnormals and the fallback octaves included) and 10M
// drawn from the tabulated octaves only.
func TestBucketOfMatchesLogRandom(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	const n = 10_000_000
	for range n {
		a := math.Float64frombits(r.Uint64() &^ (1 << 63))
		if a == 0 || math.IsNaN(a) {
			continue
		}
		checkBucket(t, a)
	}
	for range n {
		e := uint64(r.Intn(numOctaves)) + (1023 + minExp)
		checkBucket(t, math.Float64frombits(e<<52|r.Uint64()&(1<<52-1)))
	}
}

// TestBucketOfAtBoundaries finds every bucket boundary in [1e-6, 1e7]
// (the smallest float whose formula index reaches k) by bisecting the
// formula alone, then compares the table index with the formula
// within ±4 ulps of each.
func TestBucketOfAtBoundaries(t *testing.T) {
	lo, hi := 1e-6, 1e7
	n := 0
	for k := refBucket(lo) + 1; k <= refBucket(hi); k++ {
		// Bisect on the bits: positive floats order like their bits.
		l, h := math.Float64bits(lo), math.Float64bits(hi)
		for h-l > 1 {
			m := l + (h-l)/2
			if refBucket(math.Float64frombits(m)) >= k {
				h = m
			} else {
				l = m
			}
		}
		for d := -4; d <= 4; d++ {
			checkBucket(t, math.Float64frombits(uint64(int64(h)+int64(d))))
		}
		n++
	}
	if n < 14_000 {
		t.Fatalf("checked %d boundaries in [1e-6, 1e7], want the ~14,950 there are", n)
	}
}

// TestBucketOfEdges pins the extremes: the tabulated range's ends,
// the smallest and largest floats, and +Inf.
func TestBucketOfEdges(t *testing.T) {
	for _, a := range []float64{
		math.SmallestNonzeroFloat64, 0x1p-1022, math.Nextafter(0x1p-64, 0), 0x1p-64,
		1, math.Nextafter(0x1p64, 0), 0x1p64, math.MaxFloat64, math.Inf(1),
	} {
		checkBucket(t, a)
	}
}

// TestBucketTablesConcurrent drops the built tables and rebuilds them
// from several goroutines at once, as RunIndependent's workers do:
// under -race it checks that publishing a table is race-free, and
// every goroutine must see the formula's index.
func TestBucketTablesConcurrent(t *testing.T) {
	for i := range octaves {
		octaves[i].Store(nil)
	}
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			s := NewStream()
			for range 20_000 {
				a := math.Exp(r.Float64()*80 - 40)
				s.Add(a)
				if got, want := bucketOf(a), refBucket(a); got != want {
					t.Errorf("bucketOf(%v) = %d, want %d", a, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzBucketOf checks the table index against the formula on
// arbitrary float64 bits (the sign is dropped; zero and NaN, which
// Stream never indexes, are skipped).
func FuzzBucketOf(f *testing.F) {
	f.Fuzz(func(t *testing.T, bits uint64) {
		a := math.Float64frombits(bits &^ (1 << 63))
		if a == 0 || math.IsNaN(a) {
			return
		}
		checkBucket(t, a)
	})
}

// BenchmarkStreamAdd records millisecond latencies spread evenly in
// log scale over 8 decades (0.01 ms to 1,000 s). It reports the bytes
// of the bucket index tables built for them.
func BenchmarkStreamAdd(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	vals := make([]float64, 1<<12)
	for i := range vals {
		vals[i] = math.Pow(10, r.Float64()*8-2)
	}
	s := NewStream()
	for _, v := range vals {
		s.Add(v)
	}
	for i := 0; b.Loop(); i++ {
		s.Add(vals[i&(len(vals)-1)])
	}
	b.ReportMetric(float64(tableBytes()), "table_B")
}

// BenchmarkBucketTableBuild measures building one octave's table, the
// one-time cost each octave a process touches pays.
func BenchmarkBucketTableBuild(b *testing.B) {
	for i := 0; b.Loop(); i++ {
		newOctave(uint64(64 + i%24)) // the octaves from 1 to 2^24
	}
}
