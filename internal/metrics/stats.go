// Package metrics provides the simulator's statistics: Stream, the
// latency summary behind every report percentile; Prom, the
// Prometheus collector behind /metrics; and JainIndex.
//
// Stream is a log-bucketed histogram in the style of DDSketch (Masson
// et al., VLDB 2019). Count, sum, mean, min and max are exact, and the
// standard deviation comes from an exact running sum of squares; a
// percentile reads order statistics from buckets whose width keeps
// every reported value within Alpha (relative) of the sample it
// stands for. Memory grows with the
// logarithm of the observed value range, not with the sample count,
// and merging two streams adds integer bucket counts, so a merged
// summary is bit-identical in any merge order.
//
// Stream is a plain in-memory value type and not safe for concurrent
// use: the serving layer owns one per instance and merges results
// explicitly. Prom is the exception and documents its own locking.
package metrics

import (
	"fmt"
	"math"
	"time"
)

// Alpha is Stream's relative accuracy: every order statistic a
// percentile reads, other than the exact minimum and maximum, is
// reported within Alpha (relative) of the true sample.
const Alpha = 0.001

// Bucket k holds magnitudes in (γ^(k-1), γ^k] with γ =
// (1+Alpha)/(1-Alpha); reporting it as (1+Alpha)·γ^(k-1) =
// (1-Alpha)·γ^k is within Alpha of every value in it.
var (
	gamma      = (1 + Alpha) / (1 - Alpha)
	invLnGamma = 1 / math.Log(gamma)
)

// bucketValue reports the magnitude bucket k stands for. It is built
// from the bucket's lower bound, which never overflows.
func bucketValue(k int) float64 {
	return math.Pow(gamma, float64(k-1)) * (1 + Alpha)
}

// buckets is a dense run of counts over the bucket indices [offset,
// offset+len(counts)). The run covers only the indices observed so
// far: latencies spanning 0.01 ms to 1000 s (8 decades) need about
// 9,200 buckets, 72 KiB.
type buckets struct {
	offset int
	counts []uint64
}

func (b *buckets) add(k int) {
	i := k - b.offset
	if i < 0 || i >= len(b.counts) {
		b.cover(k, k)
		i = k - b.offset
	}
	b.counts[i]++
}

// cover grows the run to include the indices [lo, hi]. A run that
// must grow extends by at least half its length on the growing side,
// so values drifting one bucket at a time cost amortized O(1) copying.
func (b *buckets) cover(lo, hi int) {
	if len(b.counts) == 0 {
		b.offset, b.counts = lo, make([]uint64, hi-lo+1)
		return
	}
	curLo, curHi := b.offset, b.offset+len(b.counts)-1
	if lo >= curLo && hi <= curHi {
		return
	}
	slack := max(len(b.counts)/2, 64)
	if lo < curLo {
		lo = min(lo, curLo-slack)
	} else {
		lo = curLo
	}
	if hi > curHi {
		hi = max(hi, curHi+slack)
	} else {
		hi = curHi
	}
	grown := make([]uint64, hi-lo+1)
	copy(grown[curLo-lo:], b.counts)
	b.offset, b.counts = lo, grown
}

func (b *buckets) merge(o *buckets) {
	if len(o.counts) == 0 {
		return
	}
	b.cover(o.offset, o.offset+len(o.counts)-1)
	d := o.offset - b.offset
	for i, c := range o.counts {
		b.counts[d+i] += c
	}
}

// Stream accumulates scalar samples and answers mean, percentile, min
// and max queries in fixed memory (see the package comment). Positive
// and negative magnitudes keep separate bucket runs; zeros keep a
// count of their own. NaN samples are ignored.
type Stream struct {
	pos, neg buckets
	zero     uint64

	count      int
	sum, sumSq float64
	minV, maxV float64
}

// NewStream returns an empty stream.
func NewStream() *Stream { return &Stream{} }

// NewBoundedStream returns NewStream().
//
// Deprecated: every Stream has bounded memory; the cap is ignored.
func NewBoundedStream(int) *Stream { return NewStream() }

// Add records one sample. It allocates only when v falls outside the
// bucket range observed so far.
//
//valora:hotpath
func (s *Stream) Add(v float64) {
	switch {
	case v > 0:
		s.pos.add(bucketOf(v))
	case v < 0:
		s.neg.add(bucketOf(-v))
	case v == 0:
		s.zero++
	default:
		return // NaN has no rank
	}
	if s.count == 0 || v < s.minV {
		s.minV = v
	}
	if s.count == 0 || v > s.maxV {
		s.maxV = v
	}
	s.count++
	s.sum += v
	s.sumSq += v * v
}

// AddDuration records a duration sample in milliseconds.
func (s *Stream) AddDuration(d time.Duration) {
	s.Add(float64(d) / float64(time.Millisecond))
}

// Count reports the number of recorded samples.
func (s *Stream) Count() int { return s.count }

// Sum reports the exact sum of all recorded samples.
func (s *Stream) Sum() float64 { return s.sum }

// Mean reports the arithmetic mean, or 0 for an empty stream.
func (s *Stream) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// Min reports the smallest sample, or 0 for an empty stream.
func (s *Stream) Min() float64 {
	if s.count == 0 {
		return 0
	}
	return s.minV
}

// Max reports the largest sample, or 0 for an empty stream.
func (s *Stream) Max() float64 {
	if s.count == 0 {
		return 0
	}
	return s.maxV
}

// Percentile reports the p-th percentile (0 <= p <= 100) using linear
// interpolation between the closest ranks, or 0 for an empty stream.
// The order statistics it interpolates are the exact min and max at
// the ends and bucket values (within Alpha, clamped to [min, max])
// in between, so the result is within Alpha of the exact
// interpolation whenever the two ranks share a sign.
func (s *Stream) Percentile(p float64) float64 {
	if s.count == 0 {
		return 0
	}
	if p <= 0 {
		return s.minV
	}
	if p >= 100 {
		return s.maxV
	}
	rank := p / 100 * float64(s.count-1)
	lo := math.Floor(rank)
	a, b := s.orderStat(int(lo)), s.orderStat(int(math.Ceil(rank)))
	if a == b {
		return a // one rank or one bucket: interpolating could only round
	}
	frac := rank - lo
	return a*(1-frac) + b*frac
}

// orderStat reports the r-th smallest sample (0-based): exact at both
// ends, its bucket's value clamped to [min, max] in between.
func (s *Stream) orderStat(r int) float64 {
	if r == 0 {
		return s.minV
	}
	if r == s.count-1 {
		return s.maxV
	}
	clamp := func(v float64) float64 { return min(max(v, s.minV), s.maxV) }
	rank := uint64(r)
	for i := len(s.neg.counts) - 1; i >= 0; i-- {
		c := s.neg.counts[i]
		if rank < c {
			return clamp(-bucketValue(s.neg.offset + i))
		}
		rank -= c
	}
	if rank < s.zero {
		return 0
	}
	rank -= s.zero
	for i, c := range s.pos.counts {
		if rank < c {
			return clamp(bucketValue(s.pos.offset + i))
		}
		rank -= c
	}
	panic("metrics: stream bucket counts disagree with its sample count")
}

// StdDev reports the population standard deviation.
func (s *Stream) StdDev() float64 {
	if s.count == 0 {
		return 0
	}
	mean := s.Mean()
	return math.Sqrt(max(s.sumSq/float64(s.count)-mean*mean, 0))
}

// Merge folds all samples of other into s. Bucket counts add as
// integers, so the merged percentiles, count, min and max do not
// depend on merge order or grouping.
func (s *Stream) Merge(other *Stream) {
	if other.count == 0 {
		return
	}
	if s.count == 0 || other.minV < s.minV {
		s.minV = other.minV
	}
	if s.count == 0 || other.maxV > s.maxV {
		s.maxV = other.maxV
	}
	s.pos.merge(&other.pos)
	s.neg.merge(&other.neg)
	s.zero += other.zero
	s.count += other.count
	s.sum += other.sum
	s.sumSq += other.sumSq
}

// Reset discards all recorded samples.
func (s *Stream) Reset() { *s = Stream{} }

// Summary is a compact snapshot of a stream, convenient for report
// tables.
type Summary struct {
	Count int
	Mean  float64
	P50   float64
	P90   float64
	P95   float64
	P99   float64
	Min   float64
	Max   float64
	Std   float64
}

// Summarize captures the common summary statistics of the stream.
func (s *Stream) Summarize() Summary {
	return Summary{
		Count: s.Count(),
		Mean:  s.Mean(),
		P50:   s.Percentile(50),
		P90:   s.Percentile(90),
		P95:   s.Percentile(95),
		P99:   s.Percentile(99),
		Min:   s.Min(),
		Max:   s.Max(),
		Std:   s.StdDev(),
	}
}

// String renders the summary on one line (values interpreted in the
// caller's unit, typically milliseconds).
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f p50=%.3f p90=%.3f p95=%.3f p99=%.3f min=%.3f max=%.3f",
		s.Count, s.Mean, s.P50, s.P90, s.P95, s.P99, s.Min, s.Max)
}

// JainIndex reports Jain's fairness index over per-entity allocations:
// (Σx)² / (n·Σx²), in (0, 1] with 1 meaning perfectly equal shares.
// The multi-tenant report feeds it weight-normalized per-tenant
// service, so 1 means every tenant got exactly its configured share.
// Empty or all-zero inputs report 1 (nothing was served unfairly).
func JainIndex(xs []float64) float64 {
	var sum, sumsq float64
	for _, x := range xs {
		sum += x
		sumsq += x * x
	}
	if len(xs) == 0 || sumsq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumsq)
}
