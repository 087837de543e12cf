package workload

import (
	"testing"
	"time"
)

// TestStressTraceDeterminism: same seed → the identical trace,
// field for field; a different seed must diverge.
func TestStressTraceDeterminism(t *testing.T) {
	cfg := DefaultStress(5000, 42)
	a := GenStress(cfg)
	b := GenStress(cfg)
	if len(a) != cfg.Requests || len(b) != cfg.Requests {
		t.Fatalf("lengths %d/%d, want %d", len(a), len(b), cfg.Requests)
	}
	for i := range a {
		ra, rb := a[i], b[i]
		if ra.ID != rb.ID || ra.Arrival != rb.Arrival || ra.AdapterID != rb.AdapterID ||
			ra.InputTokens != rb.InputTokens || ra.OutputTokens != rb.OutputTokens {
			t.Fatalf("request %d diverged between identically-seeded runs: %+v vs %+v", i, ra, rb)
		}
	}

	other := cfg
	other.Seed = 43
	c := GenStress(other)
	same := true
	for i := range a {
		if a[i].Arrival != c[i].Arrival || a[i].AdapterID != c[i].AdapterID {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced the same trace")
	}
}

// TestStressTraceShape checks the generator's contract: sorted
// arrivals, token bounds, adapter range, positive IDs in order.
func TestStressTraceShape(t *testing.T) {
	cfg := StressConfig{
		Requests:        2000,
		Rate:            500,
		NumAdapters:     8,
		Skew:            0.7,
		Seed:            7,
		MinInputTokens:  16,
		MaxInputTokens:  64,
		MaxOutputTokens: 2,
	}
	tr := GenStress(cfg)
	var prev time.Duration
	hot := 0
	for i, r := range tr {
		if r.ID != int64(i+1) {
			t.Fatalf("IDs must be sequential: got %d at %d", r.ID, i)
		}
		if r.Arrival < prev {
			t.Fatalf("arrivals must be nondecreasing: %v after %v", r.Arrival, prev)
		}
		prev = r.Arrival
		if r.InputTokens < 16 || r.InputTokens > 64 {
			t.Fatalf("input tokens %d out of [16,64]", r.InputTokens)
		}
		if r.OutputTokens < 1 || r.OutputTokens > 2 {
			t.Fatalf("output tokens %d out of [1,2]", r.OutputTokens)
		}
		if r.AdapterID < 0 || r.AdapterID >= 8 {
			t.Fatalf("adapter %d out of range", r.AdapterID)
		}
		if r.AdapterID == 0 {
			hot++
		}
	}
	// The hottest adapter should receive roughly the skew fraction.
	frac := float64(hot) / float64(len(tr))
	if frac < 0.6 || frac > 0.8 {
		t.Fatalf("hot-adapter fraction %.2f, want ≈0.7", frac)
	}
	// Mean arrival rate should be in the neighbourhood of cfg.Rate.
	rate := float64(len(tr)) / tr.Duration().Seconds()
	if rate < 350 || rate > 700 {
		t.Fatalf("empirical rate %.0f req/s, want ≈500", rate)
	}
}

// TestStressDefaultsClamp exercises the zero-value guard rails.
func TestStressDefaultsClamp(t *testing.T) {
	tr := GenStress(StressConfig{})
	if len(tr) != 1 {
		t.Fatalf("zero config should yield one request, got %d", len(tr))
	}
	if tr[0].InputTokens < 1 || tr[0].OutputTokens < 1 {
		t.Fatal("defaults must produce servable token counts")
	}
}

// TestGenStressUnchanged pins the generator's output: the bench
// bit-identity harness depends on GenStress staying byte-stable.
func TestGenStressUnchanged(t *testing.T) {
	a := GenStress(DefaultStress(5000, 9))
	b := GenStress(DefaultStress(5000, 9))
	for i := range a {
		if *a[i] != *b[i] {
			t.Fatalf("GenStress not deterministic at %d", i)
		}
	}
}
