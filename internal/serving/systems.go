package serving

import (
	"fmt"
	"sync"

	"valora/internal/atmm"
	"valora/internal/lmm"
	"valora/internal/lora"
	"valora/internal/sched"
	"valora/internal/simgpu"
)

// SystemKind names the serving systems compared in the evaluation.
type SystemKind string

const (
	SystemVaLoRA SystemKind = "VaLoRA"
	SystemSLoRA  SystemKind = "S-LoRA"
	SystemPunica SystemKind = "Punica"
	SystemDLoRA  SystemKind = "dLoRA"
)

// allSystems lists the four compared systems.
func allSystems() []SystemKind {
	return []SystemKind{SystemVaLoRA, SystemSLoRA, SystemPunica, SystemDLoRA}
}

// SystemByName resolves a user-supplied system name (HTTP bodies, CLI
// flags) to its SystemKind, erroring on unknown names.
func SystemByName(name string) (SystemKind, error) {
	for _, k := range allSystems() {
		if k == SystemKind(name) {
			return k, nil
		}
	}
	return "", fmt.Errorf("serving: unknown system %q", name)
}

// atmmCache memoizes ATMM operators per (GPU, dim, maxTokens): the
// offline tiling search is deterministic, so instances are shareable.
var atmmCache sync.Map // key string → *atmm.ATMM

// sharedATMM returns a memoized ATMM operator for a GPU and model.
func sharedATMM(g *simgpu.GPU, model lmm.Config) (*atmm.ATMM, error) {
	maxTokens := 16 * model.MaxContext // fused batches exceed one context
	key := fmt.Sprintf("%s/%d/%d", g.Name, model.Dim, maxTokens)
	if v, ok := atmmCache.Load(key); ok {
		return v.(*atmm.ATMM), nil
	}
	op, err := atmm.NewATMM(g, model.Dim, maxTokens)
	if err != nil {
		return nil, err
	}
	atmmCache.Store(key, op)
	return op, nil
}

// SystemOptions builds the Options preset of one system for a model on
// a GPU, reflecting each system's published design:
//
//   - VaLoRA: ATMM operator, swift switcher, Algorithm 1 policy,
//     unified contiguous memory, async adapter swap, prefix caching.
//   - S-LoRA: custom CUDA-core batching kernel, unmerged-only FCFS,
//     unified memory (contiguous), synchronous swap.
//   - Punica: static-tile tensor-core SGMV, unmerged-only FCFS,
//     on-demand (non-contiguous, synchronous) adapter loading.
//   - dLoRA: einsum batching, dLoRA switcher, majority-merge policy,
//     non-contiguous memory, synchronous swap.
func SystemOptions(kind SystemKind, g *simgpu.GPU, model lmm.Config) (Options, error) {
	base := Options{Name: string(kind), GPU: g, Model: model}
	switch kind {
	case SystemVaLoRA:
		op, err := sharedATMM(g, model)
		if err != nil {
			return Options{}, err
		}
		sw, err := lora.NewSwiftSwitcher(g, model, op)
		if err != nil {
			return Options{}, err
		}
		base.Operator = op
		base.Switcher = sw
		base.Policy = sched.NewVaLoRAPolicy()
		base.AsyncSwap = true
		base.ContiguousMemory = true
		base.PrefixCacheImages = 512
	case SystemSLoRA:
		base.Operator = &atmm.SLoRA{GPU: g}
		base.Switcher = &lora.DLoRASwitcher{GPU: g, Model: model} // never invoked: unmerged-only
		base.Policy = &sched.UnmergeOnlyPolicy{SystemName: "S-LoRA"}
		base.AsyncSwap = false
		base.ContiguousMemory = true
	case SystemPunica:
		base.Operator = &atmm.Punica{GPU: g}
		base.Switcher = &lora.DLoRASwitcher{GPU: g, Model: model} // never invoked: unmerged-only
		base.Policy = &sched.UnmergeOnlyPolicy{SystemName: "Punica"}
		base.AsyncSwap = false
		base.ContiguousMemory = false
	case SystemDLoRA:
		base.Operator = &atmm.DLoRAEinsum{GPU: g}
		base.Switcher = &lora.DLoRASwitcher{GPU: g, Model: model}
		base.Policy = sched.NewDLoRAPolicy()
		base.AsyncSwap = false
		base.ContiguousMemory = false
	default:
		return Options{}, fmt.Errorf("serving: unknown system %q", kind)
	}
	return base, nil
}

// NewSystem builds a ready-to-run server for one of the compared
// systems.
func NewSystem(kind SystemKind, g *simgpu.GPU, model lmm.Config) (*Server, error) {
	opts, err := SystemOptions(kind, g, model)
	if err != nil {
		return nil, err
	}
	return NewServer(opts)
}
