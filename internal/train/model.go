package train

import (
	"fmt"
	"math/rand"

	"valora/internal/tensor"
)

// BaseModel is the frozen "large multimodal model": a fixed random
// projection followed by tanh. Its feature dimension stands in for the
// LMM's representational capacity — much larger than any small model's
// hidden layer, which is why a linear readout (or a low-rank adapter)
// on top of it performs well across domains.
type BaseModel struct {
	Name       string
	FeatureDim int
	InputDim   int
	W0         *tensor.Matrix // FeatureDim × InputDim, frozen
}

// NewBaseModel builds a frozen base model with deterministic weights.
func NewBaseModel(name string, inputDim, featureDim int, seed int64) *BaseModel {
	rng := rand.New(rand.NewSource(seed))
	std := 1.0 / float64(inputDim)
	return &BaseModel{
		Name:       name,
		FeatureDim: featureDim,
		InputDim:   inputDim,
		W0:         tensor.Randn(rng, featureDim, inputDim, std*4),
	}
}

// Features computes the frozen features tanh(X·W0ᵀ) without any
// adapter.
func (b *BaseModel) Features(x *tensor.Matrix) *tensor.Matrix {
	return tensor.MatMulT(x, b.W0).Tanh()
}

// Adapter is a LoRA adapter on the base model's projection: the
// effective weight is W0 + B·A with A (rank×in) and B (feat×rank),
// plus one task head per fused domain. Rank bounds capacity, which is
// what makes knowledge fusion eventually degrade (§3.2 C1).
type Adapter struct {
	Name string
	Rank int
	A    *tensor.Matrix // Rank × InputDim
	B    *tensor.Matrix // FeatureDim × Rank

	// Heads maps fused domain name → task head (classes × feat).
	Heads map[string]*tensor.Matrix
	// Domains lists fused domains in fusion order.
	Domains []string
	// Tasks records each fused domain's task type.
	Tasks map[string]TaskType
	// HeadKind records whether the adapter answers through a vision
	// task head (1 decode round) or the LM head.
	HeadKind HeadKind
}

// NewAdapter initializes an empty adapter (A near-zero, B zero — the
// standard LoRA init, so the adapter starts as a no-op).
func NewAdapter(name string, base *BaseModel, rank int, seed int64) *Adapter {
	rng := rand.New(rand.NewSource(seed))
	return &Adapter{
		Name:     name,
		Rank:     rank,
		A:        tensor.Randn(rng, rank, base.InputDim, 0.05),
		B:        tensor.New(base.FeatureDim, rank),
		Heads:    make(map[string]*tensor.Matrix),
		Tasks:    make(map[string]TaskType),
		HeadKind: VisionHead,
	}
}

// Snapshot deep-copies the adapter (weights and heads) so fusion can
// roll back.
func (a *Adapter) Snapshot() *Adapter {
	cp := &Adapter{
		Name:     a.Name,
		Rank:     a.Rank,
		A:        a.A.Clone(),
		B:        a.B.Clone(),
		Heads:    make(map[string]*tensor.Matrix, len(a.Heads)),
		Tasks:    make(map[string]TaskType, len(a.Tasks)),
		Domains:  append([]string(nil), a.Domains...),
		HeadKind: a.HeadKind,
	}
	for k, v := range a.Heads {
		cp.Heads[k] = v.Clone()
	}
	for k, v := range a.Tasks {
		cp.Tasks[k] = v
	}
	return cp
}

// Restore overwrites the adapter with a snapshot.
func (a *Adapter) Restore(snap *Adapter) {
	a.A.CopyFrom(snap.A)
	a.B.CopyFrom(snap.B)
	a.Heads = make(map[string]*tensor.Matrix, len(snap.Heads))
	for k, v := range snap.Heads {
		a.Heads[k] = v.Clone()
	}
	a.Tasks = make(map[string]TaskType, len(snap.Tasks))
	for k, v := range snap.Tasks {
		a.Tasks[k] = v
	}
	a.Domains = append([]string(nil), snap.Domains...)
	a.HeadKind = snap.HeadKind
}

// effectiveWeight returns W0 + B·A.
func (a *Adapter) effectiveWeight(base *BaseModel) *tensor.Matrix {
	w := base.W0.Clone()
	tensor.AddInPlace(w, tensor.MatMul(a.B, a.A))
	return w
}

// Features computes adapted features tanh(X·(W0+BA)ᵀ).
func (a *Adapter) Features(base *BaseModel, x *tensor.Matrix) *tensor.Matrix {
	return tensor.MatMulT(x, a.effectiveWeight(base)).Tanh()
}

// logits runs the full adapted forward pass for one fused domain.
func (a *Adapter) logits(base *BaseModel, domain string, x *tensor.Matrix) (*tensor.Matrix, error) {
	head, ok := a.Heads[domain]
	if !ok {
		return nil, fmt.Errorf("train: adapter %q has no head for domain %q", a.Name, domain)
	}
	return tensor.MatMulT(a.Features(base, x), head), nil
}

// Eval reports the adapter's test accuracy on one fused domain's
// dataset.
func (a *Adapter) Eval(base *BaseModel, ds *Dataset) (float64, error) {
	logits, err := a.logits(base, ds.Domain, ds.TestX)
	if err != nil {
		return 0, err
	}
	return tensor.Accuracy(logits, ds.TestY), nil
}

// SmallModel is a conventional domain-specific model (the YOLO /
// OSCAR / VideoMAE stand-in): a two-layer MLP trained end-to-end on
// one domain. Hidden width is its capacity.
type SmallModel struct {
	Name   string
	Hidden int
	W1     *tensor.Matrix // Hidden × InputDim
	W2     *tensor.Matrix // Classes × Hidden
	// Bytes is the checkpoint size used by the swap experiments
	// (§3.1: YOLO ≈ 0.3 GB, OSCAR ≈ 1.4 GB).
	Bytes int64
}

// NewSmallModel initializes a small model for a dataset.
func NewSmallModel(name string, inputDim, hidden, classes int, bytes int64, seed int64) *SmallModel {
	rng := rand.New(rand.NewSource(seed))
	return &SmallModel{
		Name:   name,
		Hidden: hidden,
		W1:     tensor.Randn(rng, hidden, inputDim, 0.5),
		W2:     tensor.Randn(rng, classes, hidden, 0.3),
		Bytes:  bytes,
	}
}

// forward computes the small model's logits.
func (s *SmallModel) forward(x *tensor.Matrix) *tensor.Matrix {
	h := tensor.MatMulT(x, s.W1).Tanh()
	return tensor.MatMulT(h, s.W2)
}

// Eval reports test accuracy on a dataset.
func (s *SmallModel) Eval(ds *Dataset) float64 {
	return tensor.Accuracy(s.forward(ds.TestX), ds.TestY)
}
