package sched

import (
	"math/rand"
	"testing"
	"time"

	"valora/internal/idtab"
	"valora/internal/lora"
	"valora/internal/train"
)

func mkRequests(adapters []int, arrival time.Duration) []*Request {
	out := make([]*Request, len(adapters))
	for i, a := range adapters {
		out[i] = &Request{
			ID: int64(i + 1), AdapterID: a, App: VisualRetrieval, Task: train.VisualQA,
			InputTokens: 128, OutputTokens: 16, Arrival: arrival,
		}
	}
	return stamped(out)
}

// stamped stamps an active set with adapter slots the way a serving
// instance does at ingest (sched.AdapterSlots.Stamp), so policy tests
// run the stamped path rather than Decide's fallback for unstamped
// requests.
func stamped(reqs []*Request) []*Request {
	var slots AdapterSlots
	slots.Stamp(reqs...)
	return reqs
}

func repeat(id, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = id
	}
	return out
}

func TestRequestLifecycle(t *testing.T) {
	r := &Request{ID: 1, OutputTokens: 2, Arrival: time.Second}
	if r.Done() || r.Emitted != 0 {
		t.Fatal("fresh request state wrong")
	}
	r.MarkScheduled(2 * time.Second)
	if r.FirstSchedule != 2*time.Second || r.Phase != PhaseRunning {
		t.Fatal("MarkScheduled bookkeeping wrong")
	}
	r.MarkScheduled(3 * time.Second)
	if r.FirstSchedule != 2*time.Second || r.LastSchedule != 3*time.Second {
		t.Fatal("first schedule must be sticky")
	}
	r.Emitted = 2
	if !r.Done() {
		t.Fatal("request should be done")
	}
	r.Finish = 5 * time.Second
	if r.Latency() != 4*time.Second {
		t.Fatalf("latency = %v, want 4s", r.Latency())
	}
	if r.String() == "" {
		t.Fatal("request string empty")
	}
}

func TestCredit(t *testing.T) {
	r := &Request{Arrival: time.Second}
	c := r.Credit(3*time.Second, 10*time.Millisecond, 5*time.Millisecond)
	if c != 2*time.Second+15*time.Millisecond {
		t.Fatalf("credit = %v", c)
	}
	r.MarkScheduled(4 * time.Second)
	c = r.Credit(4*time.Second, 0, 0)
	if c != 0 {
		t.Fatalf("credit after scheduling = %v, want 0", c)
	}
	// Clock before arrival: waiting clamps at zero.
	r2 := &Request{Arrival: 10 * time.Second}
	if r2.Credit(time.Second, 0, 0) != 0 {
		t.Fatal("credit must not be negative")
	}
}

func TestVaLoRAPolicyFullMerge(t *testing.T) {
	p := NewVaLoRAPolicy()
	// 40 requests, all on adapter 7: the dominant cohort fills MaxBS
	// with nobody starving → pure merged mode (Alg. 1 line 7-8).
	active := mkRequests(repeat(7, 40), 0)
	d := p.Decide(Iteration{Now: time.Millisecond, Active: active, State: lora.State{Mode: lora.ModeUnmerged, Merged: -1}, MaxBS: 32})
	if d.Mode != lora.ModeMerged || d.Merged != 7 {
		t.Fatalf("want merged on adapter 7, got %v/%d", d.Mode, d.Merged)
	}
	if len(d.Batch) != 32 {
		t.Fatalf("merged batch = %d, want full 32", len(d.Batch))
	}
}

func TestVaLoRAPolicyMixtureMajority(t *testing.T) {
	p := NewVaLoRAPolicy()
	// 20 on adapter 1, 10 spread: majority but not a full batch →
	// mixture, carrying everyone.
	ids := append(repeat(1, 20), []int{2, 3, 4, 5, 6, 2, 3, 4, 5, 6}...)
	active := mkRequests(ids, 0)
	d := p.Decide(Iteration{Now: time.Millisecond, Active: active, State: lora.State{Mode: lora.ModeUnmerged, Merged: -1}, MaxBS: 32})
	if d.Mode != lora.ModeMixture || d.Merged != 1 {
		t.Fatalf("want mixture on adapter 1, got %v/%d", d.Mode, d.Merged)
	}
	if len(d.Batch) != 30 {
		t.Fatalf("mixture batch = %d, want all 30", len(d.Batch))
	}
}

func TestVaLoRAPolicyUnmergeFallback(t *testing.T) {
	p := NewVaLoRAPolicy()
	// No majority: unmerged FCFS.
	active := mkRequests([]int{1, 2, 3, 4, 5, 6, 7, 8}, 0)
	d := p.Decide(Iteration{Now: time.Millisecond, Active: active, State: lora.State{Mode: lora.ModeUnmerged, Merged: -1}, MaxBS: 32})
	if d.Mode != lora.ModeUnmerged {
		t.Fatalf("want unmerged, got %v", d.Mode)
	}
	if len(d.Batch) != 8 {
		t.Fatalf("batch = %d, want 8", len(d.Batch))
	}
}

func TestVaLoRAPolicyStarvationPriority(t *testing.T) {
	p := NewVaLoRAPolicy()
	p.Theta = 100 * time.Millisecond
	// Adapter 1 dominates but one adapter-2 request has waited far
	// beyond θ: it must be in the batch.
	active := mkRequests(repeat(1, 40), 900*time.Millisecond)
	starved := &Request{ID: 99, AdapterID: 2, Arrival: 0, InputTokens: 64, OutputTokens: 8}
	active = stamped(append([]*Request{starved}, active...))
	d := p.Decide(Iteration{Now: time.Second, Active: active, State: lora.State{Mode: lora.ModeMerged, Merged: 1}, MaxBS: 32})
	found := false
	for _, r := range d.Batch {
		if r.ID == 99 {
			found = true
		}
	}
	if !found {
		t.Fatalf("starved request missing from %v-mode batch", d.Mode)
	}
	if d.Mode == lora.ModeMerged {
		t.Fatal("pure merged mode cannot serve the starved foreign-adapter request")
	}
}

func TestVaLoRAPolicyDisableMixture(t *testing.T) {
	p := NewVaLoRAPolicy()
	p.DisableMixture = true
	ids := append(repeat(1, 20), []int{2, 3, 4, 5, 6, 2, 3, 4, 5, 6}...)
	active := mkRequests(ids, 0)
	d := p.Decide(Iteration{Now: time.Millisecond, Active: active, State: lora.State{Mode: lora.ModeUnmerged, Merged: -1}, MaxBS: 32})
	if d.Mode == lora.ModeMixture {
		t.Fatal("mixture disabled but chosen")
	}
}

func TestVaLoRAPolicyHysteresis(t *testing.T) {
	p := NewVaLoRAPolicy()
	// Currently merged on adapter 1 with 33 requests; adapter 2 has 40
	// (more, but < 1.5×33): hysteresis sticks with 1.
	ids := append(repeat(1, 33), repeat(2, 40)...)
	active := mkRequests(ids, 0)
	d := p.Decide(Iteration{Now: time.Millisecond, Active: active, State: lora.State{Mode: lora.ModeMerged, Merged: 1}, MaxBS: 32})
	if d.Merged != 1 {
		t.Fatalf("hysteresis should keep adapter 1 merged, got %d", d.Merged)
	}
	// 2× the cohort: switch.
	ids = append(repeat(1, 20), repeat(2, 40)...)
	active = mkRequests(ids, 0)
	d = p.Decide(Iteration{Now: time.Millisecond, Active: active, State: lora.State{Mode: lora.ModeMerged, Merged: 1}, MaxBS: 32})
	if d.Merged != 2 {
		t.Fatalf("clear dominance should switch to adapter 2, got %d", d.Merged)
	}
}

func TestVaLoRAPolicyEmpty(t *testing.T) {
	p := NewVaLoRAPolicy()
	cur := lora.State{Mode: lora.ModeMerged, Merged: 3}
	d := p.Decide(Iteration{Now: 0, Active: nil, State: cur, MaxBS: 32})
	if len(d.Batch) != 0 || d.Mode != cur.Mode || d.Merged != cur.Merged {
		t.Fatal("empty active set should keep the current state")
	}
}

func TestUnmergeOnlyPolicy(t *testing.T) {
	p := &UnmergeOnlyPolicy{SystemName: "S-LoRA"}
	if p.Name() != "S-LoRA" {
		t.Fatal("system name not used")
	}
	active := mkRequests(repeat(1, 50), 0)
	d := p.Decide(Iteration{Now: 0, Active: active, State: lora.State{}, MaxBS: 32})
	if d.Mode != lora.ModeUnmerged || len(d.Batch) != 32 || d.Merged != -1 {
		t.Fatalf("unmerge-only decision wrong: %v", d)
	}
	if (&UnmergeOnlyPolicy{}).Name() != "unmerge-only" {
		t.Fatal("default name wrong")
	}
}

func TestMergeOnlyPolicy(t *testing.T) {
	p := &MergeOnlyPolicy{}
	ids := append(repeat(4, 10), repeat(5, 3)...)
	active := mkRequests(ids, 0)
	d := p.Decide(Iteration{Now: 0, Active: active, State: lora.State{Mode: lora.ModeUnmerged, Merged: -1}, MaxBS: 32})
	if d.Mode != lora.ModeMerged || d.Merged != 4 || len(d.Batch) != 10 {
		t.Fatalf("merge-only should pick the popular adapter: %v/%d/%d", d.Mode, d.Merged, len(d.Batch))
	}
	// Stickiness: while adapter 5 still has work, keep it merged even
	// though 4 is more popular.
	d = p.Decide(Iteration{Now: 0, Active: active, State: lora.State{Mode: lora.ModeMerged, Merged: 5}, MaxBS: 32})
	if d.Merged != 5 {
		t.Fatal("merge-only should finish the current adapter's work first")
	}
}

func TestDLoRAPolicy(t *testing.T) {
	p := NewDLoRAPolicy()
	if p.Name() != "dLoRA" {
		t.Fatal("name wrong")
	}
	// Majority → merged.
	ids := append(repeat(1, 10), []int{2, 3}...)
	d := p.Decide(Iteration{Active: mkRequests(ids, 0), State: lora.State{Mode: lora.ModeUnmerged, Merged: -1}, MaxBS: 32})
	if d.Mode != lora.ModeMerged || d.Merged != 1 {
		t.Fatalf("dLoRA should merge the majority adapter: %v", d)
	}
	// No majority → unmerged.
	d = p.Decide(Iteration{Active: mkRequests([]int{1, 2, 3, 4, 5}, 0), State: lora.State{Mode: lora.ModeUnmerged, Merged: -1}, MaxBS: 32})
	if d.Mode != lora.ModeUnmerged {
		t.Fatalf("dLoRA should unmerge without a majority: %v", d.Mode)
	}
}

func TestMostCommonAdapterDeterministicTies(t *testing.T) {
	active := mkRequests([]int{5, 2, 5, 2}, 0)
	var c cohorts
	id1, _ := c.mostCommon(active, lora.State{Merged: -1})
	id2, _ := c.mostCommon(active, lora.State{Merged: -1})
	if id1 != id2 {
		t.Fatal("tie-breaking must be deterministic")
	}
	if id1 != 2 {
		t.Fatalf("tie should break to the lower ID, got %d", id1)
	}
	// Ties prefer the currently merged adapter.
	id3, _ := c.mostCommon(active, lora.State{Merged: 5})
	if id3 != 5 {
		t.Fatalf("tie should prefer the merged adapter, got %d", id3)
	}
}

// TestCohortsMatchMapCount checks the slot-indexed tally against a
// map count with the same tie rules, on random active sets, reusing
// one tally across calls (stale epochs must read as zero).
func TestCohortsMatchMapCount(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var c cohorts
	for i := 0; i < 2000; i++ {
		active := randomActive(rng, 1+rng.Intn(24), 1+rng.Intn(8))
		if rng.Intn(2) == 0 {
			for _, r := range active {
				r.Slot = 0 // the tally stamps from its own table
			}
		}
		cur := lora.State{Merged: rng.Intn(10) - 2}
		counts := map[int]int{}
		for _, r := range active {
			counts[r.AdapterID]++
		}
		want, wantN := -1, 0
		for id, n := range counts {
			if n > wantN || (n == wantN && (id == cur.Merged || (want != cur.Merged && id < want))) {
				want, wantN = id, n
			}
		}
		got, reqs := c.mostCommon(active, cur)
		if got != want || len(reqs) != wantN {
			t.Fatalf("set %d: mostCommon = %d (%d requests), map count %d (%d)", i, got, len(reqs), want, wantN)
		}
		for _, r := range reqs {
			if r.AdapterID != want {
				t.Fatalf("set %d: request for adapter %d in adapter %d's cohort", i, r.AdapterID, want)
			}
		}
	}
}

func TestAppTypeAndPhaseStrings(t *testing.T) {
	if VisualRetrieval.String() == "" || VideoAnalytics.String() == "" {
		t.Fatal("app names empty")
	}
	if VisualRetrieval.String() == VideoAnalytics.String() {
		t.Fatal("app names must differ")
	}
}

// TestAdapterSlots interns IDs on both sides of the directly indexed
// range: slots are dense, 1-based, issued in first-sight order and
// stable on re-interning.
func TestAdapterSlots(t *testing.T) {
	var slots AdapterSlots
	ids := []int{7, 0, idtab.DenseIDs + 3, 7, 1 << 40, 2, idtab.DenseIDs - 1, -5}
	want := []int32{1, 2, 3, 1, 4, 5, 6, 7}
	for i, id := range ids {
		if got := slots.Intern(id); got != want[i] {
			t.Fatalf("Intern(%d) = %d, want %d", id, got, want[i])
		}
	}
	if slots.Len() != 7 {
		t.Fatalf("Len = %d, want 7", slots.Len())
	}
	for i, id := range ids {
		if got := slots.Lookup(id); got != want[i] {
			t.Fatalf("Lookup(%d) = %d, want %d", id, got, want[i])
		}
	}
	for _, id := range []int{1, 3, idtab.DenseIDs, 1 << 41, -1} {
		if got := slots.Lookup(id); got != 0 {
			t.Fatalf("Lookup(%d) of an unseen ID = %d, want 0", id, got)
		}
	}
}
