package lora

import (
	"fmt"
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
// The returned duration covers all layers. scratch, when non-nil,
// backs the operator batch's groups across calls (the serving loop
// passes its own); nil allocates a fresh batch.
func ExtraCost(op atmm.Operator, model lmm.Config, mode Mode, merged int, groups []TokenGroup, scratch *[]atmm.Group) (time.Duration, error) {
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
		perLayer, err := op.LayerTime(batch)
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
		perLayer, err := op.LayerTime(batch)
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
// appended to (*scratch)[:0] when scratch is non-nil, and the grown
// slice is stored back.
func buildBatch(model lmm.Config, groups []TokenGroup, merged, mergedRank int, scratch *[]atmm.Group) atmm.Batch {
	b := atmm.Batch{Dim: model.Dim, Projections: model.LoRAProjections}
	if scratch != nil {
		b.Groups = (*scratch)[:0]
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
		*scratch = b.Groups
	}
	return b
}
