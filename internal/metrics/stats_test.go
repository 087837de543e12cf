package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestStreamEmpty(t *testing.T) {
	s := NewStream()
	if s.Count() != 0 || s.Mean() != 0 || s.Percentile(50) != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatalf("empty stream should report zeros, got %+v", s.Summarize())
	}
}

func TestStreamMean(t *testing.T) {
	s := NewStream()
	for _, v := range []float64{1, 2, 3, 4} {
		s.Add(v)
	}
	if got := s.Mean(); got != 2.5 {
		t.Fatalf("mean = %v, want 2.5", got)
	}
	if got := s.Count(); got != 4 {
		t.Fatalf("count = %v, want 4", got)
	}
}

// TestStreamPercentileExact: the ends are the exact min and max; an
// interior percentile interpolates bucket values, each within Alpha of
// its sample.
func TestStreamPercentileExact(t *testing.T) {
	s := NewStream()
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct{ p, want, tol float64 }{
		{0, 1, 0}, {100, 100, 0}, {50, 50.5, 50.5 * Alpha},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); math.Abs(got-c.want) > c.tol {
			t.Errorf("p%v = %v, want %v ± %v", c.p, got, c.want, c.tol)
		}
	}
}

func TestStreamPercentileMonotonic(t *testing.T) {
	f := func(vals []float64, a, b float64) bool {
		if len(vals) == 0 {
			return true
		}
		s := NewStream()
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			s.Add(v)
		}
		pa := math.Mod(math.Abs(a), 100)
		pb := math.Mod(math.Abs(b), 100)
		if pa > pb {
			pa, pb = pb, pa
		}
		return s.Percentile(pa) <= s.Percentile(pb)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStreamMeanBounds(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		s := NewStream()
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				return true
			}
			s.Add(v)
		}
		return s.Min()-1e-6 <= s.Mean() && s.Mean() <= s.Max()+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStreamMerge(t *testing.T) {
	a, b := NewStream(), NewStream()
	a.Add(1)
	a.Add(2)
	b.Add(3)
	a.Merge(b)
	if a.Count() != 3 || a.Mean() != 2 {
		t.Fatalf("merged stream count=%d mean=%v, want 3 and 2", a.Count(), a.Mean())
	}
}

func TestStreamAddDuration(t *testing.T) {
	s := NewStream()
	s.AddDuration(1500 * time.Microsecond)
	if got := s.Mean(); math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("AddDuration recorded %v ms, want 1.5", got)
	}
}

func TestStreamStdDev(t *testing.T) {
	s := NewStream()
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if got := s.StdDev(); math.Abs(got-2) > 1e-9 {
		t.Fatalf("stddev = %v, want 2", got)
	}
}

func TestSummary(t *testing.T) {
	s := NewStream()
	for i := 0; i < 10; i++ {
		s.Add(float64(i))
	}
	sum := s.Summarize()
	if sum.Count != 10 || sum.Min != 0 || sum.Max != 9 {
		t.Fatalf("bad summary %+v", sum)
	}
	if sum.String() == "" {
		t.Fatal("summary string empty")
	}
}
