package sched

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"valora/internal/lora"
)

// decisionInvariants checks the structural properties every policy
// decision must satisfy: batch within the cap, no duplicate requests,
// batch drawn from the active set, and mode/merged consistency
// (merged mode only contains the merged adapter's requests; an
// adapter is named whenever the mode folds one).
func decisionInvariants(t *testing.T, name string, d Decision, active []*Request, maxBS int) {
	t.Helper()
	if len(d.Batch) > maxBS {
		t.Fatalf("%s: batch %d exceeds cap %d", name, len(d.Batch), maxBS)
	}
	inActive := make(map[int64]*Request, len(active))
	for _, r := range active {
		inActive[r.ID] = r
	}
	seen := make(map[int64]bool, len(d.Batch))
	for _, r := range d.Batch {
		if seen[r.ID] {
			t.Fatalf("%s: request %d batched twice", name, r.ID)
		}
		seen[r.ID] = true
		if inActive[r.ID] == nil {
			t.Fatalf("%s: request %d not in the active set", name, r.ID)
		}
	}
	switch d.Mode {
	case lora.ModeMerged:
		if d.Merged < 0 {
			t.Fatalf("%s: merged mode without a merged adapter", name)
		}
		for _, r := range d.Batch {
			if r.AdapterID != d.Merged {
				t.Fatalf("%s: merged-mode batch contains foreign adapter %d (merged %d)",
					name, r.AdapterID, d.Merged)
			}
		}
	case lora.ModeMixture:
		if d.Merged < 0 {
			t.Fatalf("%s: mixture mode without a merged adapter", name)
		}
	case lora.ModeUnmerged:
		// No constraints beyond the general ones.
	default:
		t.Fatalf("%s: unknown mode %v", name, d.Mode)
	}
}

// randomActive builds a randomized active set with mixed waiting times
// and adapter popularity.
func randomActive(rng *rand.Rand, n, adapters int) []*Request {
	out := make([]*Request, n)
	for i := range out {
		adapter := rng.Intn(adapters)
		if rng.Float64() < 0.5 {
			adapter = 0 // hot adapter
		}
		r := &Request{
			ID:           int64(i + 1),
			AdapterID:    adapter,
			InputTokens:  64 + rng.Intn(512),
			OutputTokens: 1 + rng.Intn(64),
			Arrival:      time.Duration(rng.Intn(5000)) * time.Millisecond,
		}
		if rng.Float64() < 0.5 {
			r.MarkScheduled(r.Arrival + time.Duration(rng.Intn(1000))*time.Millisecond)
			r.Emitted = 1 + rng.Intn(r.OutputTokens)
			if r.Emitted >= r.OutputTokens {
				r.Emitted = r.OutputTokens - 1
			}
			r.PrefillDone = true
		}
		out[i] = r
	}
	return stamped(out)
}

func TestPolicyInvariantsProperty(t *testing.T) {
	policies := []Policy{
		NewVaLoRAPolicy(),
		&VaLoRAPolicy{Theta: time.Millisecond, EstExec: time.Millisecond, SwitchLat: time.Millisecond},
		&VaLoRAPolicy{Theta: time.Hour, DisableMixture: true},
		&UnmergeOnlyPolicy{},
		&MergeOnlyPolicy{},
		NewDLoRAPolicy(),
	}
	states := []lora.State{
		{Mode: lora.ModeUnmerged, Merged: -1},
		{Mode: lora.ModeMerged, Merged: 0},
		{Mode: lora.ModeMixture, Merged: 2},
	}
	f := func(seed int64, rawN, rawBS uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(rawN) % 80
		maxBS := int(rawBS)%48 + 1
		active := randomActive(rng, n, 8)
		now := 6 * time.Second
		for _, p := range policies {
			for _, cur := range states {
				d := p.Decide(Iteration{Now: now, Active: active, State: cur, MaxBS: maxBS})
				decisionInvariants(t, p.Name(), d, active, maxBS)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestPreemptiveDecisionInvariants checks the structural properties of
// displacement decisions: Evict is drawn from Active, disjoint from
// the batch, never contains an Unpreemptable request, is paired
// one-to-one with Admit, and Admit is drawn from Waiting.
func TestPreemptiveDecisionInvariants(t *testing.T) {
	f := func(seed int64, rawN, rawW, rawBS uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(rawN)%80 + 1
		w := int(rawW) % 24
		maxBS := int(rawBS)%32 + 1
		active := randomActive(rng, n, 8)
		for _, r := range active {
			if rng.Float64() < 0.3 {
				r.Deadline = time.Duration(100+rng.Intn(900)) * time.Millisecond
			}
			if rng.Float64() < 0.2 {
				r.Unpreemptable = true
			}
		}
		waiting := randomActive(rng, w, 8)
		for _, r := range waiting {
			r.PrefillDone = false
			r.Emitted = 0
			if rng.Float64() < 0.7 {
				r.Deadline = time.Duration(50+rng.Intn(400)) * time.Millisecond
			}
		}
		p := NewVaLoRAPolicy()
		p.Preempt = true
		p.DeadlineCredit = rng.Intn(2) == 0
		now := 6 * time.Second
		d := p.Decide(Iteration{Now: now, Active: active, Waiting: waiting,
			State: lora.State{Mode: lora.ModeUnmerged, Merged: -1}, MaxBS: maxBS})
		decisionInvariants(t, "VaLoRA+preempt", d, active, maxBS)
		if len(d.Evict) != len(d.Admit) {
			t.Fatalf("evict %d and admit %d not paired", len(d.Evict), len(d.Admit))
		}
		inBatch := make(map[*Request]bool, len(d.Batch))
		for _, r := range d.Batch {
			inBatch[r] = true
		}
		inActive := make(map[*Request]bool, len(active))
		for _, r := range active {
			inActive[r] = true
		}
		seenVictim := make(map[*Request]bool)
		for _, v := range d.Evict {
			if v.Unpreemptable {
				t.Fatalf("unpreemptable request %d chosen as victim", v.ID)
			}
			if inBatch[v] {
				t.Fatalf("victim %d is also batched", v.ID)
			}
			if !inActive[v] {
				t.Fatalf("victim %d not in the active set", v.ID)
			}
			if seenVictim[v] {
				t.Fatalf("victim %d evicted twice", v.ID)
			}
			seenVictim[v] = true
		}
		inWaiting := make(map[*Request]bool, len(waiting))
		for _, r := range waiting {
			inWaiting[r] = true
		}
		for _, a := range d.Admit {
			if !inWaiting[a] {
				t.Fatalf("admitted request %d not in the waiting set", a.ID)
			}
			if a.Deadline <= 0 {
				t.Fatalf("best-effort request %d admitted by displacement", a.ID)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPolicyServesEveryoneEventually simulates rounds of decisions and
// checks no request waits forever under the VaLoRA policy (the
// starvation guarantee of the credit mechanism).
func TestPolicyServesEveryoneEventually(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := NewVaLoRAPolicy()
	active := randomActive(rng, 60, 8)
	for _, r := range active {
		r.Emitted = 0
		r.PrefillDone = false
		r.Phase = PhaseQueued
	}
	cur := lora.State{Mode: lora.ModeUnmerged, Merged: -1}
	served := make(map[int64]bool)
	now := 6 * time.Second
	const step = 20 * time.Millisecond
	for round := 0; round < 400 && len(served) < len(active); round++ {
		d := p.Decide(Iteration{Now: now, Active: active, State: cur, MaxBS: 16})
		for _, r := range d.Batch {
			served[r.ID] = true
			r.MarkScheduled(now)
		}
		cur = lora.State{Mode: d.Mode, Merged: d.Merged}
		now += step
	}
	if len(served) != len(active) {
		t.Fatalf("only %d/%d requests ever scheduled: starvation", len(served), len(active))
	}
}

// TestVaLoRAPolicySlotNumberingInvariant is the differential check on
// slot-indexed cohort counts: decisions depend on adapter IDs only, so
// an active set stamped in a scrambled slot order and an unstamped one
// (stamped by Decide's own fallback) must decide exactly alike, round
// after round.
func TestVaLoRAPolicySlotNumberingInvariant(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		scrambled := randomActive(rand.New(rand.NewSource(seed)), 70, 12)
		var slots AdapterSlots
		for _, id := range rand.New(rand.NewSource(-seed)).Perm(12) {
			slots.Intern(id)
		}
		slots.Stamp(scrambled...)
		plain := randomActive(rand.New(rand.NewSource(seed)), 70, 12)
		for _, r := range plain {
			r.ClearScratchMarks()
		}
		pa, pb := NewVaLoRAPolicy(), NewVaLoRAPolicy()
		cur := lora.State{Mode: lora.ModeUnmerged, Merged: -1}
		now := 6 * time.Second
		for round := 0; round < 30; round++ {
			da := pa.Decide(Iteration{Now: now, Active: scrambled, State: cur, MaxBS: 16})
			db := pb.Decide(Iteration{Now: now, Active: plain, State: cur, MaxBS: 16})
			if da.Mode != db.Mode || da.Merged != db.Merged || len(da.Batch) != len(db.Batch) {
				t.Fatalf("seed %d round %d: %v/%d/%d vs %v/%d/%d", seed, round,
					da.Mode, da.Merged, len(da.Batch), db.Mode, db.Merged, len(db.Batch))
			}
			for i := range da.Batch {
				if da.Batch[i].ID != db.Batch[i].ID {
					t.Fatalf("seed %d round %d: batch[%d] is %d vs %d", seed, round, i, da.Batch[i].ID, db.Batch[i].ID)
				}
				da.Batch[i].MarkScheduled(now)
				db.Batch[i].MarkScheduled(now)
			}
			cur = lora.State{Mode: da.Mode, Merged: da.Merged}
			now += 20 * time.Millisecond
		}
	}
}
