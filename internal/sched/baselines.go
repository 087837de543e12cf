package sched

import (
	"valora/internal/lora"
)

// UnmergeOnlyPolicy is the S-LoRA / Punica serving discipline: always
// unmerged, FCFS continuous batching up to the batch cap. It never
// pays switch costs but pays the unmerged extra compute even on
// perfectly merge-friendly workloads.
type UnmergeOnlyPolicy struct {
	// SystemName labels which baseline runtime uses this policy.
	SystemName string
}

func (p *UnmergeOnlyPolicy) Name() string {
	if p.SystemName != "" {
		return p.SystemName
	}
	return "unmerge-only"
}

func (p *UnmergeOnlyPolicy) Decide(it Iteration) Decision {
	return Decision{Mode: lora.ModeUnmerged, Merged: -1, Batch: capBatch(it.Active, it.MaxBS)}
}

// MergeOnlyPolicy always serves in merged mode with the most popular
// adapter; requests for other adapters wait. It is the "merge only"
// arm of Fig. 19: fastest per-batch, but underutilizes the GPU on
// mixed workloads and starves minority adapters.
type MergeOnlyPolicy struct {
	cohorts cohorts
}

func (p *MergeOnlyPolicy) Name() string { return "merge-only" }

func (p *MergeOnlyPolicy) Decide(it Iteration) Decision {
	active, cur, maxBS := it.Active, it.State, it.MaxBS
	if len(active) == 0 {
		return Decision{Mode: cur.Mode, Merged: cur.Merged}
	}
	// Stick with the current adapter while it still has work to avoid
	// thrashing merges.
	if cur.Merged >= 0 {
		var mine []*Request
		for _, r := range active {
			if r.AdapterID == cur.Merged {
				mine = append(mine, r)
			}
		}
		if len(mine) > 0 {
			return Decision{Mode: lora.ModeMerged, Merged: cur.Merged, Batch: capBatch(mine, maxBS)}
		}
	}
	id, reqs := p.cohorts.mostCommon(active, cur)
	return Decision{Mode: lora.ModeMerged, Merged: id, Batch: capBatch(reqs, maxBS)}
}

// DLoRAPolicy approximates dLoRA's dynamic orchestration: serve the
// dominant adapter merged while it holds a majority of the waiting
// work, otherwise fall back to unmerged mode; no mixture mode exists,
// so every transition pays the (slow) dLoRA switch.
type DLoRAPolicy struct {
	// MajorityFrac is the fraction of active requests the dominant
	// adapter must hold to justify merged mode.
	MajorityFrac float64

	cohorts cohorts
}

// NewDLoRAPolicy returns the policy with the paper's ≥50% majority
// heuristic.
func NewDLoRAPolicy() *DLoRAPolicy { return &DLoRAPolicy{MajorityFrac: 0.5} }

func (p *DLoRAPolicy) Name() string { return "dLoRA" }

func (p *DLoRAPolicy) Decide(it Iteration) Decision {
	active, cur, maxBS := it.Active, it.State, it.MaxBS
	if len(active) == 0 {
		return Decision{Mode: cur.Mode, Merged: cur.Merged}
	}
	id, reqs := p.cohorts.mostCommon(active, cur)
	if float64(len(reqs)) >= p.MajorityFrac*float64(len(active)) {
		return Decision{Mode: lora.ModeMerged, Merged: id, Batch: capBatch(reqs, maxBS)}
	}
	return Decision{Mode: lora.ModeUnmerged, Merged: -1, Batch: capBatch(active, maxBS)}
}
