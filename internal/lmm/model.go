// Package lmm models large multimodal model inference: the visual
// encoder, the transformer forward pass (prefill and decode), the
// paged KV cache, and prefix caching. Latencies come from the simgpu
// substrate plus calibrated framework overheads; the package carries
// no numerical weights — serving behaviour depends only on token
// counts, layer dimensions and memory traffic.
package lmm

import "fmt"

// Config describes one LMM, mirroring the paper's Table 2.
type Config struct {
	Name string

	// Transformer geometry.
	Layers int
	Dim    int
	// FFNMult is the MLP expansion ratio (gated MLPs in the
	// LLaMA/Qwen family use ≈2.7 with three projections).
	FFNMult float64

	// LLMParams is the language-model parameter count; WeightBytes is
	// the full checkpoint size resident in GPU memory (Table 2 "Size",
	// which includes the visual encoder).
	LLMParams   float64
	WeightBytes int64

	// Visual receptor.
	VisualParams float64 // visual encoder parameter count
	VisualTokens int     // visual tokens per image after the projector
	MaxContext   int

	// LoRAProjections is how many attention projections per layer
	// carry LoRA weights.
	LoRAProjections int
	// DefaultRank is the LoRA rank used in the evaluation (§6.1).
	DefaultRank int
}

func (c Config) String() string {
	return fmt.Sprintf("%s (%d layers, dim %d, %.1f GB)", c.Name, c.Layers, c.Dim,
		float64(c.WeightBytes)/float64(1<<30))
}

// KVBytesPerToken reports the KV-cache footprint of one token:
// key + value, per layer, FP16.
func (c Config) KVBytesPerToken() int64 {
	return 2 * int64(c.Layers) * int64(c.Dim) * 2
}

// AdapterBytes reports the resident size of one LoRA adapter's A and B
// matrices for this model at the given rank (§4.4.1: tens of MB,
// versus ~3 GB for the pre-computed ΔW of every layer).
func (c Config) AdapterBytes(rank int) int64 {
	perProj := int64(2) * int64(c.Dim) * int64(rank) * 2 // A and B, FP16
	return int64(c.Layers) * int64(c.LoRAProjections) * perProj
}

// DeltaWBytes reports the size of the pre-computed ΔW = B·A for every
// LoRA-carrying projection of every layer — what a naive
// merge-by-swapping design would ship over PCIe.
func (c Config) DeltaWBytes() int64 {
	return int64(c.Layers) * int64(c.LoRAProjections) * int64(c.Dim) * int64(c.Dim) * 2
}

// QwenVL7B returns the Qwen-VL-7B configuration (Table 2: Openclip
// ViT-bigG 1.9B visual encoder, 18 GB, 32 layers, dim 4096).
func QwenVL7B() Config {
	return Config{
		Name:            "Qwen-VL-7B",
		Layers:          32,
		Dim:             4096,
		FFNMult:         2.7,
		LLMParams:       7.7e9,
		WeightBytes:     18 << 30,
		VisualParams:    1.9e9,
		VisualTokens:    256,
		MaxContext:      2048,
		LoRAProjections: 4,
		DefaultRank:     64,
	}
}

// LLaVA7B returns the LLaVA-1.5-7B configuration (Table 2: CLIP ViT-L
// 0.3B, 13 GB, 32 layers, dim 4096).
func LLaVA7B() Config {
	return Config{
		Name:            "LLaVA-1.5-7B",
		Layers:          32,
		Dim:             4096,
		FFNMult:         2.7,
		LLMParams:       6.7e9,
		WeightBytes:     13 << 30,
		VisualParams:    0.3e9,
		VisualTokens:    576,
		MaxContext:      4096,
		LoRAProjections: 4,
		DefaultRank:     64,
	}
}

// LLaVA13B returns the LLaVA-1.5-13B configuration (Table 2: CLIP
// ViT-L 0.3B, 24 GB, 40 layers, dim 5120).
func LLaVA13B() Config {
	return Config{
		Name:            "LLaVA-1.5-13B",
		Layers:          40,
		Dim:             5120,
		FFNMult:         2.7,
		LLMParams:       13e9,
		WeightBytes:     24 << 30,
		VisualParams:    0.3e9,
		VisualTokens:    576,
		MaxContext:      4096,
		LoRAProjections: 4,
		DefaultRank:     64,
	}
}

// AllModels lists the three evaluation models.
func AllModels() []Config { return []Config{QwenVL7B(), LLaVA7B(), LLaVA13B()} }
