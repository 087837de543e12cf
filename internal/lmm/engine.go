package lmm

import (
	"math"
	"time"

	"valora/internal/simgpu"
)

// IterationLoad describes one continuous-batching iteration: the new
// prompt tokens entering prefill, the images those prompts carry, the
// sequences emitting one decode token, and the total KV context those
// decodes attend over.
type IterationLoad struct {
	PrefillTokens int
	PrefillImages int
	DecodeSeqs    int
	ContextTokens int
}

// Tokens reports the total tokens processed in the iteration.
func (l IterationLoad) Tokens() int { return l.PrefillTokens + l.DecodeSeqs }

// Engine costs LMM forward passes on a GPU. It captures the serving
// asymmetry the paper leans on in §6.2: prefill tokens batch into
// compute-bound GEMMs (<1 ms/token), decode steps are bound by
// streaming the model weights (tens of ms/token).
type Engine struct {
	GPU   *simgpu.GPU
	Model Config

	// PrefillEff is the achieved fraction of tensor-core peak on large
	// prefill GEMMs.
	PrefillEff float64
	// KernelsPerLayer approximates the kernel launches per transformer
	// layer (QKV, attention, output, gated MLP, norms).
	KernelsPerLayer int
	// FrameworkOverhead is the per-iteration serving-loop cost
	// (scheduler, tokenizer, Python dispatch in the reference stack).
	FrameworkOverhead time.Duration
}

// NewEngine builds an engine with calibrated defaults.
func NewEngine(g *simgpu.GPU, model Config) *Engine {
	return &Engine{
		GPU:               g,
		Model:             model,
		PrefillEff:        0.62,
		KernelsPerLayer:   5,
		FrameworkOverhead: 1500 * time.Microsecond,
	}
}

// IterationTime reports the base-model time of one iteration,
// excluding any LoRA computation (mode-dependent LoRA costs are added
// by the lora package).
func (e *Engine) IterationTime(load IterationLoad) time.Duration {
	tokens := load.Tokens()
	if tokens == 0 && load.PrefillImages == 0 {
		return 0
	}

	// The model is read through a pointer: its value-receiver helpers
	// would each copy the whole Config.
	m := &e.Model
	var total time.Duration

	// Visual receptor: encoder + projector per image.
	if load.PrefillImages > 0 {
		// Encoding one image costs 2·VisualParams FLOPs per visual token.
		visualFLOPs := 2 * m.VisualParams * float64(m.VisualTokens)
		encSec := float64(load.PrefillImages) * visualFLOPs /
			(e.GPU.TensorTFLOPS * 1e12 * 0.5)
		total += time.Duration(encSec * 1e9)
	}

	if tokens > 0 {
		// A token's forward pass costs 2·LLMParams FLOPs (the standard
		// 2·params estimate).
		flopsPerToken := 2 * m.LLMParams
		compute := flopsPerToken * float64(tokens) /
			(e.GPU.TensorTFLOPS * 1e12 * e.PrefillEff)

		// One pass streams the LLM weights once regardless of batch
		// size (this is why batching decodes is nearly free), plus the
		// KV context the decode attention reads.
		weights := float64(m.LLMParams) * 2
		kvBytesPerToken := 2 * int64(m.Layers) * int64(m.Dim) * 2 // KVBytesPerToken
		kv := float64(load.ContextTokens) * float64(kvBytesPerToken)
		memory := (weights + kv) / e.GPU.HBMBandwidth

		launches := time.Duration(m.Layers*e.KernelsPerLayer) * e.GPU.KernelLaunch
		total += time.Duration(math.Max(compute, memory)*1e9) + launches
	}

	return total + e.FrameworkOverhead
}

// PrefillTime is a convenience for a pure-prefill pass of n tokens and
// images.
func (e *Engine) PrefillTime(tokens, images int) time.Duration {
	return e.IterationTime(IterationLoad{PrefillTokens: tokens, PrefillImages: images})
}

// DecodeStepTime is a convenience for one decode step over a batch.
func (e *Engine) DecodeStepTime(seqs, contextTokens int) time.Duration {
	return e.IterationTime(IterationLoad{DecodeSeqs: seqs, ContextTokens: contextTokens})
}
