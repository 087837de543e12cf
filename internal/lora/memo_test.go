package lora

import (
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"valora/internal/atmm"
	"valora/internal/lmm"
	"valora/internal/simgpu"
)

// costOps returns every batching operator: adaptive and static ATMM and
// the three baselines.
func costOps(t *testing.T) []atmm.Operator {
	t.Helper()
	g := simgpu.A100()
	adaptive, err := atmm.NewATMM(g, 4096, 8192)
	if err != nil {
		t.Fatal(err)
	}
	pu, sl, dl := atmm.NewBaselines(g)
	return []atmm.Operator{adaptive, atmm.NewStaticATMM(g), pu, sl, dl}
}

// sameCost reports whether two ExtraCost results agree exactly,
// errors by message.
func sameCost(d1 time.Duration, e1 error, d2 time.Duration, e2 error) bool {
	if e1 != nil || e2 != nil {
		return e1 != nil && e2 != nil && e1.Error() == e2.Error()
	}
	return d1 == d2
}

// TestExtraCostMemoMatchesDirect drives one warm CostScratch through
// every operator × mode on random batches, switching operator and
// model every few calls, and checks each memoised result against a
// direct (scratch-less) ExtraCost. Token counts come from a small set
// so batches repeat and hit; up to seven groups, so batches past the
// memo's group cap bypass it.
func TestExtraCostMemoMatchesDirect(t *testing.T) {
	ops := costOps(t)
	models := []lmm.Config{lmm.QwenVL7B(), lmm.LLaVA13B()}
	modes := []Mode{ModeMerged, ModeUnmerged, ModeMixture}
	tokens := []int{0, 1, 2, 3, 5, 8, 16, 40, 300, 1024}
	ranks := []int{16, 32, 64, 64, 128, 8}
	rng := rand.New(rand.NewSource(19))
	var cs CostScratch
	op, model := ops[0], models[0]
	var groups []TokenGroup
	for i := 0; i < 20000; i++ {
		if rng.Intn(40) == 0 {
			op = ops[rng.Intn(len(ops))]
		}
		if rng.Intn(60) == 0 {
			model = models[rng.Intn(len(models))]
		}
		groups = groups[:0]
		for j := 0; j < 1+rng.Intn(7); j++ {
			groups = append(groups, TokenGroup{AdapterID: rng.Intn(6), Rank: ranks[rng.Intn(len(ranks))], Tokens: tokens[rng.Intn(len(tokens))]})
		}
		mode := modes[rng.Intn(len(modes))]
		merged := rng.Intn(6)
		want, wantErr := ExtraCost(op, &model, mode, merged, groups, nil)
		got, err := ExtraCost(op, &model, mode, merged, groups, &cs)
		if !sameCost(got, err, want, wantErr) {
			t.Fatalf("call %d, %s %s %v merged %d %v: memo %v, %v; direct %v, %v",
				i, op.Name(), model.Name, mode, merged, groups, got, err, want, wantErr)
		}
	}
}

// countingOp counts the LayerTime calls that reach the operator.
type countingOp struct {
	atmm.Operator
	calls int
}

func (c *countingOp) LayerTime(b atmm.Batch) (time.Duration, error) {
	c.calls++
	return c.Operator.LayerTime(b)
}

// funcOp is an operator whose dynamic type is not comparable.
type funcOp func(atmm.Batch) (time.Duration, error)

func (f funcOp) Name() string                                  { return "func" }
func (f funcOp) LayerTime(b atmm.Batch) (time.Duration, error) { return f(b) }

// TestCostMemoHitsCollisionsAndRebinding pins the memo's mechanics: a
// repeated batch is answered without the operator; a batch whose key
// collides with a resident one evicts it (and the full-key check keeps
// the two apart); batches past the group cap bypass it; and switching
// the operator or the model clears it.
func TestCostMemoHitsCollisionsAndRebinding(t *testing.T) {
	ops := costOps(t)
	qwen, llava := lmm.QwenVL7B(), lmm.LLaVA13B()
	op := &countingOp{Operator: ops[0]}
	var cs CostScratch
	check := func(what string, op atmm.Operator, model lmm.Config, groups []TokenGroup, wantCalls int, counter *countingOp) {
		t.Helper()
		before := counter.calls
		want, wantErr := ExtraCost(counter.Operator, &model, ModeUnmerged, -1, groups, nil)
		got, err := ExtraCost(op, &model, ModeUnmerged, -1, groups, &cs)
		if !sameCost(got, err, want, wantErr) {
			t.Fatalf("%s: memo %v, %v; direct %v, %v", what, got, err, want, wantErr)
		}
		if calls := counter.calls - before; calls != wantCalls {
			t.Fatalf("%s: %d operator calls, want %d", what, calls, wantCalls)
		}
	}
	a := []TokenGroup{{AdapterID: 1, Rank: 64, Tokens: 7}, {AdapterID: 2, Rank: 32, Tokens: 3}}
	check("first sight", op, qwen, a, 1, op)
	check("repeat", op, qwen, a, 0, op)
	// Adapter IDs do not enter the key: same (tokens, rank) sequence.
	check("relabelled", op, qwen, []TokenGroup{{AdapterID: 9, Rank: 64, Tokens: 7}, {AdapterID: 4, Rank: 32, Tokens: 3}}, 0, op)
	// Order does: the reversed sequence is another key.
	check("reordered", op, qwen, []TokenGroup{a[1], a[0]}, 1, op)

	// Find a one-group batch whose key lands in a's slot.
	ea, slot, _ := memoKey(buildBatch(&qwen, a, -1, -1, nil).Groups)
	var b []TokenGroup
	for tok := 1; b == nil; tok++ {
		g := []TokenGroup{{AdapterID: 1, Rank: 64, Tokens: tok}}
		if e, s, _ := memoKey(buildBatch(&qwen, g, -1, -1, nil).Groups); s == slot && e.key != ea.key {
			b = g
		}
	}
	check("colliding key", op, qwen, b, 1, op)
	check("colliding key repeat", op, qwen, b, 0, op)
	check("evicted key", op, qwen, a, 1, op)

	wide := make([]TokenGroup, memoGroups+1)
	for i := range wide {
		wide[i] = TokenGroup{AdapterID: i, Rank: 64, Tokens: 2 + i}
	}
	check("over the group cap", op, qwen, wide, 1, op)
	check("over the group cap, again", op, qwen, wide, 1, op)

	huge := []TokenGroup{{AdapterID: 1, Rank: 64, Tokens: 1 << (32 - memoRankBits)}}
	check("token count past the key", op, qwen, huge, 1, op)
	check("token count past the key, again", op, qwen, huge, 1, op)

	check("other model", op, llava, a, 1, op)
	check("other model repeat", op, llava, a, 0, op)
	check("model switched back", op, qwen, a, 1, op)
	other := &countingOp{Operator: ops[2]}
	check("other operator", other, qwen, a, 1, other)
	check("operator switched back", op, qwen, a, 1, op)

	// A non-comparable operator is served, never memoised.
	inner := &countingOp{Operator: ops[0]}
	f := funcOp(inner.LayerTime)
	check("non-comparable operator", f, qwen, a, 1, inner)
	check("non-comparable operator, again", f, qwen, a, 1, inner)
}

// TestCostMemoFootprint holds the memo to its documented 24 KiB per
// instance.
func TestCostMemoFootprint(t *testing.T) {
	if size := unsafe.Sizeof(CostScratch{}.memo[0]) << memoBits; size > 24<<10 {
		t.Fatalf("memo table is %d B, want at most 24 KiB", size)
	}
}
