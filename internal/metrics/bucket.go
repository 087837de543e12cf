package metrics

import (
	"math"
	"sync/atomic"
)

// bucketOf reports the bucket index of a positive magnitude:
// bucketOfLog's value on every input, without calling math.Log for
// the magnitudes latencies take.
//
// A float64 in the octave [2^e, 2^(e+1)) is 2^e times a mantissa, and
// the top subBits mantissa bits split the octave into 1,024 equal
// sub-intervals. A bucket is wider than a sub-interval (about 347
// buckets per octave against 1,024 sub-intervals), so at most one
// bucket boundary falls inside each. The octave's table stores, per
// sub-interval, the index at its start and the low mantissa bits of
// the boundary inside it, and the index is one compare away. Octaves
// outside [2^minExp, 2^(minExp+numOctaves)), subnormals and +Inf fall
// back to the formula.
func bucketOf(a float64) int {
	b := math.Float64bits(a)
	if o := b>>52 - (1023 + minExp); o < numOctaves { // wraps below the range
		if t := octaves[o].Load(); t != nil {
			e := t[b>>lowBits&(1<<subBits-1)]
			// The low bits reach the boundary exactly when
			// boundary-1-low is negative, which sets bit 63.
			return int(e>>indexShift) - indexBias + int((e&boundMask-1-b&lowMask)>>63)
		}
	}
	return bucketOfCold(a)
}

// bucketOfCold indexes what the built tables do not cover: it builds
// the octave of a tabulated magnitude, and computes the formula for
// the rest.
func bucketOfCold(a float64) int {
	o := math.Float64bits(a)>>52 - (1023 + minExp)
	if o >= numOctaves {
		return bucketOfLog(a)
	}
	octaves[o].CompareAndSwap(nil, newOctave(o))
	return bucketOf(a)
}

// bucketOfLog is the defining formula of the bucket index: bucket k
// holds (γ^(k-1), γ^k]. +Inf shares the largest finite value's
// bucket.
func bucketOfLog(a float64) int {
	return int(math.Ceil(math.Log(min(a, math.MaxFloat64)) * invLnGamma))
}

const (
	subBits = 10             // mantissa bits that pick a sub-interval
	lowBits = 52 - subBits   // mantissa bits within a sub-interval
	lowMask = 1<<lowBits - 1 // selects them
	// noBoundary is the boundary entry of a sub-interval that holds
	// none: no low bits reach it.
	noBoundary = 1 << lowBits
	// An entry is (index+indexBias)<<indexShift | boundary low bits.
	indexShift = lowBits + 1
	boundMask  = 1<<indexShift - 1
	indexBias  = 1 << 20 // |index| < 2^15 over the tabulated octaves

	// The tabulated octaves: [2^-64, 2^64), which holds any latency in
	// milliseconds or seconds with room to spare.
	minExp     = -64
	numOctaves = 128
)

// octaveTable is one octave's sub-interval entries: 8 KiB.
type octaveTable = [1 << subBits]uint64

// octaves holds the tables built so far, shared by every Stream in
// the process. Each is built on first use and published with a
// compare-and-swap, so streams on parallel workers read them without
// a lock; two workers that race to build an octave compute identical
// tables, and the loser adopts the winner's.
var octaves [numOctaves]atomic.Pointer[octaveTable]

// newOctave tabulates octave o. It finds each boundary in the octave
// (the smallest float whose bucketOfLog index reaches k) by
// estimating it as γ^(k-1) and correcting the estimate against the
// formula, which takes a few evaluations since the estimate is off by
// a few ulps.
func newOctave(o uint64) *octaveTable {
	lo := (o + (1023 + minExp)) << 52 // bits of the octave's first value
	hi := lo + 1<<52 - 1              // and of its last
	k, last := indexAt(lo), indexAt(hi)
	// boundaryAfter returns the first bits past from whose index
	// exceeds k, from's own index (hi+1 when the octave has none).
	lnGamma := 1 / invLnGamma
	boundaryAfter := func(from uint64, k int) uint64 {
		if k >= last {
			return hi + 1
		}
		return firstReaching(k+1, from, hi, math.Float64bits(math.Exp(float64(k)*lnGamma)))
	}
	next := boundaryAfter(lo, k)
	t := new(octaveTable)
	for j := range t {
		start := lo | uint64(j)<<lowBits
		end := start + 1<<lowBits
		if next == start { // a boundary exactly at the sub-interval's start
			k++
			next = boundaryAfter(next, k)
		}
		entry := uint64(k+indexBias) << indexShift
		if next < end {
			entry |= next & lowMask
			k++
			next = boundaryAfter(next, k)
			if next < end {
				panic("metrics: two bucket boundaries in one sub-interval")
			}
		} else {
			entry |= noBoundary
		}
		t[j] = entry
	}
	return t
}

// indexAt is bucketOfLog of the float with the given bits.
func indexAt(bits uint64) int { return bucketOfLog(math.Float64frombits(bits)) }

// firstReaching returns the smallest bits in (lo, hi] whose index is
// at least k, given that lo's index is below k and hi's is not. It
// gallops from guess, clamped into range, towards the boundary and
// then bisects.
func firstReaching(k int, lo, hi, guess uint64) uint64 {
	guess = min(max(guess, lo+1), hi)
	if indexAt(guess) >= k {
		hi = guess
		for step := uint64(1); hi-lo > step; step <<= 1 {
			if indexAt(hi-step) < k {
				lo = hi - step
				break
			}
			hi -= step
		}
	} else {
		lo = guess
		for step := uint64(1); hi-lo > step; step <<= 1 {
			if indexAt(lo+step) >= k {
				hi = lo + step
				break
			}
			lo += step
		}
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if indexAt(mid) >= k {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// tableBytes reports the memory the octave tables built so far hold.
func tableBytes() int {
	n := 0
	for i := range octaves {
		if octaves[i].Load() != nil {
			n += 8 << subBits
		}
	}
	return n
}
