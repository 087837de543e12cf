// Package atmm implements the Adaptive-Tiling Matrix Multiplication
// operator (§4.3 of the VaLoRA paper) and the three baseline LoRA
// batching operators it is evaluated against: Punica's static-tiling
// SGMV kernel, S-LoRA's fine-grained CUDA-core kernel, and dLoRA's
// einsum-based padded batched GEMM.
//
// All operators cost the same logical work — applying a heterogeneous
// set of LoRA adapters to the token groups of one layer's projections
// — through the shared simgpu substrate, so measured differences
// isolate the batching strategy, exactly as in the paper's Fig. 17/18.
package atmm

import (
	"fmt"
	"time"
)

// Group is the set of tokens in a batch that invoke one LoRA adapter.
type Group struct {
	AdapterID int
	Tokens    int // total tokens across the group's requests
	Rank      int // the adapter's LoRA rank
}

// Batch describes one heterogeneous LoRA batch at one layer: the
// hidden dimension of the base model, the adapter groups, and how many
// attention projections carry LoRA weights (q,k,v,o ⇒ 4).
type Batch struct {
	Dim         int
	Projections int
	Groups      []Group
}

// TotalTokens reports the token count across all groups.
func (b Batch) TotalTokens() int {
	t := 0
	for _, g := range b.Groups {
		t += g.Tokens
	}
	return t
}

// MaxTokens reports the largest group's token count (the padding
// target of batched-GEMM style operators).
func (b Batch) MaxTokens() int {
	m := 0
	for _, g := range b.Groups {
		if g.Tokens > m {
			m = g.Tokens
		}
	}
	return m
}

// MaxRank reports the largest adapter rank in the batch.
func (b Batch) MaxRank() int {
	m := 0
	for _, g := range b.Groups {
		if g.Rank > m {
			m = g.Rank
		}
	}
	return m
}

// Validate checks the batch for structural problems.
func (b Batch) Validate() error {
	if b.Dim <= 0 {
		return fmt.Errorf("atmm: non-positive hidden dim %d", b.Dim)
	}
	if b.Projections <= 0 {
		return fmt.Errorf("atmm: non-positive projection count %d", b.Projections)
	}
	for _, g := range b.Groups {
		if g.Tokens <= 0 {
			return fmt.Errorf("atmm: adapter %d has non-positive token count %d", g.AdapterID, g.Tokens)
		}
		if g.Rank <= 0 {
			return fmt.Errorf("atmm: adapter %d has non-positive rank %d", g.AdapterID, g.Rank)
		}
	}
	return nil
}

// Operator computes the kernel time for one heterogeneous LoRA batch
// at one transformer layer (shrink + expand over all projections).
type Operator interface {
	// Name identifies the operator in reports ("ATMM", "Punica", ...).
	Name() string
	// LayerTime reports the time to apply the batch's LoRA adapters at
	// one layer. The caller may reuse b.Groups after the call returns,
	// so an operator must not retain the batch.
	LayerTime(b Batch) (time.Duration, error)
}
