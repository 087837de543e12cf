package lora

import (
	"fmt"
	"reflect"
	"time"

	"valora/internal/atmm"
	"valora/internal/lmm"
)

// TokenGroup is the per-adapter token tally of one iteration.
type TokenGroup struct {
	AdapterID int
	Rank      int
	Tokens    int
}

// ExtraCost computes the per-iteration LoRA overhead on top of the
// base model for a mode (§4.4.2):
//
//   - merged: the merged adapter's requests ride the folded weights
//     for free; no other adapters may be present.
//   - unmerged: every group runs bypass-style through the batching
//     operator, once per layer.
//   - mixture (deLoRA): the merged adapter's tokens are free; every
//     other group runs unmerged *plus* a deLoRA branch of the merged
//     adapter's rank over the same tokens, subtracting the merged ΔW's
//     contribution so results stay exact.
//
// The returned duration covers all layers. model is read, never
// written; it is passed by pointer so the per-iteration call does not
// copy the Config. scratch, when non-nil,
// backs the operator batch's groups across calls and memoises
// per-layer costs (each serving instance passes its own); nil
// allocates a fresh batch and always asks the operator.
func ExtraCost(op atmm.Operator, model *lmm.Config, mode Mode, merged int, groups []TokenGroup, scratch *CostScratch) (time.Duration, error) {
	switch mode {
	case ModeMerged:
		for _, g := range groups {
			if g.AdapterID != merged && g.Tokens > 0 {
				return 0, fmt.Errorf("lora: merged mode cannot serve adapter %d (merged %d)", g.AdapterID, merged)
			}
		}
		return 0, nil

	case ModeUnmerged:
		batch := buildBatch(model, groups, -1, -1, scratch)
		if len(batch.Groups) == 0 {
			return 0, nil
		}
		perLayer, err := scratch.layerTime(op, batch)
		if err != nil {
			return 0, err
		}
		return time.Duration(model.Layers) * perLayer, nil

	case ModeMixture:
		mergedRank := 0
		for _, g := range groups {
			if g.AdapterID == merged {
				mergedRank = g.Rank
			}
		}
		if mergedRank == 0 {
			mergedRank = model.DefaultRank
		}
		batch := buildBatch(model, groups, merged, mergedRank, scratch)
		if len(batch.Groups) == 0 {
			return 0, nil
		}
		perLayer, err := scratch.layerTime(op, batch)
		if err != nil {
			return 0, err
		}
		return time.Duration(model.Layers) * perLayer, nil

	default:
		return 0, fmt.Errorf("lora: unknown mode %v", mode)
	}
}

// buildBatch assembles the operator batch. In mixture mode (merged >=
// 0) the merged adapter's groups are skipped and a deLoRA branch of
// mergedRank is added covering the unmerged tokens. The groups are
// appended to the scratch's group slice when scratch is non-nil, and
// the grown slice is stored back.
func buildBatch(model *lmm.Config, groups []TokenGroup, merged, mergedRank int, scratch *CostScratch) atmm.Batch {
	b := atmm.Batch{Dim: model.Dim, Projections: model.LoRAProjections}
	if scratch != nil {
		b.Groups = scratch.groups[:0]
	}
	unmergedTokens := 0
	for _, g := range groups {
		if g.Tokens <= 0 {
			continue
		}
		if merged >= 0 && g.AdapterID == merged {
			continue // rides the folded weights
		}
		b.Groups = append(b.Groups, atmm.Group{AdapterID: g.AdapterID, Tokens: g.Tokens, Rank: g.Rank})
		unmergedTokens += g.Tokens
	}
	if merged >= 0 && unmergedTokens > 0 {
		// deLoRA branch: same weights as the merged adapter, applied to
		// the unmerged tokens with a negative sign.
		b.Groups = append(b.Groups, atmm.Group{AdapterID: -merged - 1, Tokens: unmergedTokens, Rank: mergedRank})
	}
	if scratch != nil {
		scratch.groups = b.Groups
	}
	return b
}

// Memo geometry: operator batches of one to memoGroups groups are
// memoised in a direct-mapped table of 1<<memoBits entries (24 B each,
// 24 KiB per instance). A group's key word packs its token count above
// memoRankBits bits of rank. Larger batches repeat too rarely to be
// worth a slot.
const (
	memoGroups   = 4
	memoBits     = 10
	memoRankBits = 12
)

// CostScratch is one serving instance's working memory for ExtraCost:
// the operator batch's group slice, reused across calls, and a memo of
// per-layer operator costs. Decode iterations repeat the same few
// (tokens, rank) batches over and over, so most LayerTime calls are
// answered from the memo.
//
// A per-layer cost depends only on the operator, the model's hidden
// dim and LoRA projection count, and the ordered (tokens, rank) pairs
// of the batch's groups (adapter IDs only label errors). The memo is
// bound to the operator and model of its entries and is cleared when
// either changes; every hit is verified against the full key. Only an
// operator with a comparable dynamic type, whose LayerTime is a pure
// function of the batch, is memoised — every operator in package atmm
// is. A CostScratch is not safe for concurrent use; the zero value is
// ready.
type CostScratch struct {
	groups []atmm.Group

	op        atmm.Operator
	dim, proj int
	memo      *[1 << memoBits]costEntry // allocated on first bind
}

// costEntry is one memo slot: the key words of a batch's groups, zero
// past its last group, and the batch's per-layer cost. Every group's
// word is non-zero, so an empty slot (all zero) matches no batch.
type costEntry struct {
	key  [memoGroups]uint32
	cost time.Duration
}

// layerTime is op.LayerTime(b) through the memo. Empty batches,
// batches with more than memoGroups groups, and groups whose token
// count or rank does not fit a key word bypass it; errors are never
// memoised.
//
//valora:hotpath
func (cs *CostScratch) layerTime(op atmm.Operator, b atmm.Batch) (time.Duration, error) {
	if cs == nil || len(b.Groups) == 0 || len(b.Groups) > memoGroups {
		return op.LayerTime(b)
	}
	e, i, ok := memoKey(b.Groups)
	if !ok {
		return op.LayerTime(b)
	}
	if (cs.op != op || cs.dim != b.Dim || cs.proj != b.Projections) && !cs.bind(op, b.Dim, b.Projections) {
		return op.LayerTime(b)
	}
	slot := &cs.memo[i]
	if slot.key == e.key {
		return slot.cost, nil
	}
	d, err := op.LayerTime(b)
	if err == nil {
		e.cost = d
		*slot = e
	}
	return d, err
}

// memoKey builds the memo entry (cost unset) for a batch of one to
// memoGroups groups and the index of its slot. ok is false when a
// token count or rank does not fit a key word.
func memoKey(groups []atmm.Group) (e costEntry, slot int, ok bool) {
	h := uint64(0)
	for i, g := range groups {
		if g.Tokens <= 0 || g.Rank <= 0 || g.Tokens >= 1<<(32-memoRankBits) || g.Rank >= 1<<memoRankBits {
			return costEntry{}, 0, false
		}
		e.key[i] = uint32(g.Tokens)<<memoRankBits | uint32(g.Rank)
		h = (h ^ uint64(e.key[i])) * 0x9e3779b97f4a7c15
	}
	return e, int(h >> (64 - memoBits)), true
}

// bind clears the memo and binds it to op and the model geometry. It
// refuses an operator whose dynamic type is not comparable, which
// could not be told apart from its successor.
func (cs *CostScratch) bind(op atmm.Operator, dim, proj int) bool {
	if op == nil || !reflect.TypeOf(op).Comparable() {
		return false
	}
	if cs.memo == nil {
		cs.memo = new([1 << memoBits]costEntry)
	} else {
		clear(cs.memo[:])
	}
	cs.op, cs.dim, cs.proj = op, dim, proj
	return true
}
