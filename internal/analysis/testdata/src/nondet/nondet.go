// Package nondet is the golden fixture for the nondeterminism
// analyzer: wall-clock reads, global math/rand, and order-sensitive
// map iteration are flagged; seeded generators and commutative folds
// stay silent.
package nondet

import (
	"math/rand"
	"time"
)

func wallClock() time.Duration {
	start := time.Now()      // want "wall-clock time.Now"
	return time.Since(start) // want "wall-clock time.Since"
}

func globalRand() int {
	return rand.Intn(10) // want "global rand.Intn draws from the process-wide stream"
}

func globalFloat() float64 {
	return rand.Float64() // want "global rand.Float64 draws from the process-wide stream"
}

// seededRand is clean: an explicitly seeded generator carries its own
// stream.
func seededRand(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(10)
}

func floatSum(m map[string]float64) float64 {
	var total float64
	for _, v := range m {
		total += v // want "float accumulation in map-range order"
	}
	return total
}

// intSum is clean: integer folds commute, so map order is
// unobservable.
func intSum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

func collect(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want "slice append in map-range order"
	}
	return out
}

func pickAny(m map[string]int) string {
	best := ""
	for k := range m {
		best = k // want "selection escaping a map range"
	}
	return best
}

// keyed is clean: out\[k\] = v lands every element in its own slot
// regardless of visit order.
func keyed(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func firstMatch(m map[string]int) string {
	for k, v := range m {
		if v > 0 {
			return k // want "return inside a map range depends on the loop variable"
		}
	}
	return ""
}

// anyPositive is clean: a constant early exit is order-independent —
// either some element is positive or none is.
func anyPositive(m map[string]int) bool {
	for _, v := range m {
		if v > 0 {
			return true
		}
	}
	return false
}

// flagAny is clean: assigning a constant inside the range is
// order-independent.
func flagAny(m map[string]int) bool {
	found := false
	for range m {
		found = true
	}
	return found
}
