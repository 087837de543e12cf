package workload

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"valora/internal/sched"
	"valora/internal/train"
)

func TestRetrievalTraceBasics(t *testing.T) {
	cfg := DefaultRetrieval(5, 30*time.Second, 16, 0.6, 42)
	trace := GenRetrieval(cfg)
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
	// Rate: within a generous band of 5 req/s × 30 s (plus multi-round
	// follow-ups).
	if len(trace) < 100 || len(trace) > 400 {
		t.Fatalf("trace size %d implausible for 5 req/s x 30 s", len(trace))
	}
	if !sort.SliceIsSorted(trace, func(i, j int) bool { return trace[i].Arrival < trace[j].Arrival }) {
		t.Fatal("trace not sorted by arrival")
	}
	for _, r := range trace {
		if r.InputTokens <= 0 || r.OutputTokens <= 0 || r.AdapterID < 0 || r.AdapterID >= 16 {
			t.Fatalf("bad request %+v", r)
		}
		if r.App != sched.VisualRetrieval {
			t.Fatal("wrong app type")
		}
	}
}

func TestRetrievalTraceDeterministic(t *testing.T) {
	a := GenRetrieval(DefaultRetrieval(4, 20*time.Second, 8, 0.5, 7))
	b := GenRetrieval(DefaultRetrieval(4, 20*time.Second, 8, 0.5, 7))
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Arrival != b[i].Arrival || a[i].AdapterID != b[i].AdapterID || a[i].InputTokens != b[i].InputTokens {
			t.Fatalf("request %d differs between identical seeds", i)
		}
	}
}

func TestSkewedPickerFractions(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := NewSkewedPicker(16, 0.7, rng)
	counts := make(map[int]int)
	n := 20000
	for i := 0; i < n; i++ {
		counts[p.Pick()]++
	}
	hot := float64(counts[0]) / float64(n)
	if hot < 0.65 || hot > 0.75 {
		t.Fatalf("hot adapter fraction %.3f, want ~0.70", hot)
	}
}

func TestSkewedPickerProperty(t *testing.T) {
	f := func(seed int64, rawSkew uint8, rawN uint8) bool {
		n := int(rawN)%32 + 1
		skew := float64(rawSkew) / 255
		p := NewSkewedPicker(n, skew, rand.New(rand.NewSource(seed)))
		for i := 0; i < 100; i++ {
			id := p.Pick()
			if id < 0 || id >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiRoundSessionsShareImages(t *testing.T) {
	cfg := DefaultRetrieval(6, 30*time.Second, 8, 0.5, 11)
	cfg.MultiRound = 1.0 // every request opens a session
	trace := GenRetrieval(cfg)
	sessions := make(map[uint32]int)
	for _, r := range trace {
		if r.ImageID != 0 {
			sessions[r.ImageID]++
		}
	}
	if len(sessions) == 0 {
		t.Fatal("no sessions generated")
	}
	multi := 0
	for _, c := range sessions {
		if c >= 2 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("sessions should revisit the same image across rounds")
	}
}

func TestVideoTraceCadence(t *testing.T) {
	cfg := DefaultVideo(3, 10*time.Second, 8, 0.5, 5)
	trace := GenVideo(cfg)
	// 3 streams × ~10 chunks × 2 requests per chunk.
	if len(trace) < 48 || len(trace) > 66 {
		t.Fatalf("video trace size %d, want ~60", len(trace))
	}
	det, vu := 0, 0
	for _, r := range trace {
		switch r.Task {
		case train.ObjectDetection:
			det++
		case train.VideoClassification:
			vu++
			if r.InputTokens < 6*cfg.VisualTokens {
				t.Fatalf("video understanding input %d below 6 frames worth", r.InputTokens)
			}
		default:
			t.Fatalf("unexpected task %v", r.Task)
		}
		if r.Deadline != time.Second {
			t.Fatal("video requests must carry the real-time deadline")
		}
		if r.App != sched.VideoAnalytics {
			t.Fatal("wrong app type")
		}
	}
	if det != vu {
		t.Fatalf("detection (%d) and understanding (%d) requests should pair up", det, vu)
	}
}

func TestVideoHeadControlsRounds(t *testing.T) {
	vh := DefaultVideo(1, 5*time.Second, 4, 0.5, 9)
	vh.Head = train.VisionHead
	lm := DefaultVideo(1, 5*time.Second, 4, 0.5, 9)
	lm.Head = train.LMHead
	a, b := GenVideo(vh), GenVideo(lm)
	if a.totalOutputTokens() >= b.totalOutputTokens() {
		t.Fatalf("vision-head trace (%d output tokens) should be shorter than LM-head (%d)",
			a.totalOutputTokens(), b.totalOutputTokens())
	}
	for _, r := range a {
		if r.OutputTokens != 1 {
			t.Fatalf("vision-head request has %d rounds, want 1", r.OutputTokens)
		}
	}
}

func TestMergeReassignsIDs(t *testing.T) {
	a := GenRetrieval(DefaultRetrieval(2, 5*time.Second, 4, 0.5, 1))
	b := GenVideo(DefaultVideo(1, 5*time.Second, 4, 0.5, 2))
	m := Merge(a, b)
	if len(m) != len(a)+len(b) {
		t.Fatalf("merged %d, want %d", len(m), len(a)+len(b))
	}
	for i, r := range m {
		if r.ID != int64(i+1) {
			t.Fatalf("IDs not reassigned sequentially at %d", i)
		}
		if i > 0 && m[i-1].Arrival > r.Arrival {
			t.Fatal("merged trace not sorted")
		}
	}
}

func TestTraceAccessors(t *testing.T) {
	var empty Trace
	if empty.Duration() != 0 || empty.totalOutputTokens() != 0 {
		t.Fatal("empty trace accessors should be zero")
	}
	tr := GenRetrieval(DefaultRetrieval(2, 5*time.Second, 4, 0.5, 1))
	if tr.Duration() <= 0 || tr.totalOutputTokens() <= 0 {
		t.Fatal("trace accessors must be positive")
	}
}

func TestPickerEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	one := NewSkewedPicker(1, 0.3, rng)
	for i := 0; i < 10; i++ {
		if one.Pick() != 0 {
			t.Fatal("single-adapter picker must always pick 0")
		}
	}
	clamped := NewSkewedPicker(4, 1.5, rng) // skew clamps to 1
	for i := 0; i < 10; i++ {
		if clamped.Pick() != 0 {
			t.Fatal("skew 1.0 must always pick the hot adapter")
		}
	}
	if NewSkewedPicker(0, -1, rng).Pick() != 0 {
		t.Fatal("degenerate picker should still work")
	}
}
