package lora

import (
	"time"

	"valora/internal/atmm"
	"valora/internal/lmm"
	"valora/internal/simgpu"
)

// Mode is the inference mode of the runtime (§2, §4.4).
type Mode int

const (
	// ModeUnmerged computes every adapter bypass-style next to the
	// frozen base weights (supports heterogeneous adapters, pays extra
	// kernels).
	ModeUnmerged Mode = iota
	// ModeMerged folds one adapter's ΔW into the base weights
	// (zero extra cost, single adapter only).
	ModeMerged
	// ModeMixture is deLoRA (§4.4.2): one adapter merged, other
	// adapters unmerged with a compensating deLoRA branch.
	ModeMixture

	// NumModes counts the modes, for per-mode arrays.
	NumModes = iota
)

func (m Mode) String() string {
	switch m {
	case ModeMerged:
		return "merge"
	case ModeUnmerged:
		return "unmerge"
	case ModeMixture:
		return "mixture"
	default:
		return "unknown-mode"
	}
}

// State is the runtime's current (mode, merged adapter) pair.
type State struct {
	Mode   Mode
	Merged int // adapter ID merged into the weights; -1 if none
}

// Switcher computes the cost of moving between runtime states.
type Switcher interface {
	Name() string
	// SwitchTime reports the stall to go from one state to another.
	SwitchTime(from, to State) time.Duration
	// MergeTime reports the cost of merging (or unmerging) one
	// adapter of the given rank into the base weights.
	MergeTime(rank int) time.Duration
}

// SwiftSwitcher is VaLoRA's mode switcher (§4.4.1): pre-allocated
// contiguous weights (no reshape copies) and a single fused ATMM
// launch that computes ΔW = B·A for every LoRA-carrying projection of
// every layer, followed by one in-place elementwise merge over those
// weights. Total cost is <10 ms on the paper's setup.
type SwiftSwitcher struct {
	GPU   *simgpu.GPU
	Model lmm.Config
	Op    *atmm.ATMM
}

// NewSwiftSwitcher builds the switcher (and its ATMM operator if op is
// nil).
func NewSwiftSwitcher(g *simgpu.GPU, model lmm.Config, op *atmm.ATMM) (*SwiftSwitcher, error) {
	if op == nil {
		var err error
		op, err = atmm.NewATMM(g, model.Dim, model.MaxContext)
		if err != nil {
			return nil, err
		}
	}
	return &SwiftSwitcher{GPU: g, Model: model, Op: op}, nil
}

func (s *SwiftSwitcher) Name() string { return "swift" }

// MergeTime is the one-shot all-layer ΔW computation plus the in-place
// add over the affected projection weights.
func (s *SwiftSwitcher) MergeTime(rank int) time.Duration {
	segs := []simgpu.Segment{{
		Shape: simgpu.Shape{M: s.Model.Dim, K: rank, N: s.Model.Dim},
		Count: s.Model.Layers * s.Model.LoRAProjections,
	}}
	gemm, err := s.Op.BatchTime(segs, simgpu.Shape{M: s.Model.Dim, K: rank, N: s.Model.Dim})
	if err != nil {
		// The search space always contains a feasible config for these
		// square shapes; fall back to a memory-bound estimate.
		gemm = s.GPU.MemTouch(s.Model.DeltaWBytes())
	}
	add := s.GPU.MemTouch(s.Model.DeltaWBytes())
	return gemm + add
}

func (s *SwiftSwitcher) SwitchTime(from, to State) time.Duration {
	return switchTime(s, from, to, s.Model.DefaultRank)
}

// DLoRASwitcher models dLoRA's switch path (§3.2 C3): per-layer
// torch.addmm calls (one per projection) each paying eager-mode
// dispatch, a reshape copy forced by non-contiguous weight layout, and
// a small GEMM — summing to tens of milliseconds per merge.
type DLoRASwitcher struct {
	GPU   *simgpu.GPU
	Model lmm.Config
}

func (d *DLoRASwitcher) Name() string { return "dLoRA" }

// perCallDispatch is the eager-mode framework overhead of one
// addmm-plus-reshape call chain from Python.
const perCallDispatch = 300 * time.Microsecond

func (d *DLoRASwitcher) MergeTime(rank int) time.Duration {
	calls := d.Model.Layers * d.Model.LoRAProjections
	projBytes := int64(d.Model.Dim) * int64(d.Model.Dim) * 2
	cfg := simgpu.TileConfig{BM: 128, BK: 32, BN: 64, WM: 64, WK: 32, WN: 32, SplitK: 1, Stages: 2}
	gemm, err := d.GPU.GEMMTime(simgpu.Shape{M: d.Model.Dim, K: rank, N: d.Model.Dim}, cfg, simgpu.TensorCore)
	if err != nil {
		gemm = d.GPU.MemTouch(projBytes)
	}
	perCall := perCallDispatch + d.GPU.DeviceCopy(projBytes) + gemm
	return time.Duration(calls) * perCall
}

func (d *DLoRASwitcher) SwitchTime(from, to State) time.Duration {
	return switchTime(d, from, to, d.Model.DefaultRank)
}

// switchTime composes merge/unmerge operations for a state change:
//   - unmerge→merge: one merge
//   - merge→unmerge: one unmerge (same cost as a merge)
//   - merge(A)→merge(B): unmerge A then merge B
//   - entering or leaving mixture re-uses the merged weights, so only
//     adapter changes pay.
func switchTime(s Switcher, from, to State, rank int) time.Duration {
	fromMerged := from.Mode != ModeUnmerged && from.Merged >= 0
	toMerged := to.Mode != ModeUnmerged && to.Merged >= 0
	switch {
	case !fromMerged && !toMerged:
		return 0
	case !fromMerged && toMerged:
		return s.MergeTime(rank)
	case fromMerged && !toMerged:
		return s.MergeTime(rank)
	default:
		if from.Merged == to.Merged {
			return 0
		}
		return 2 * s.MergeTime(rank)
	}
}
