// Package lora is the serving-time LoRA runtime of the VaLoRA
// reproduction: adapter metadata, the unified GPU memory pool with
// asynchronous host↔device swapping, the inference modes (merged,
// unmerged, and the deLoRA mixture mode of §4.4.2), and the inference
// mode switchers (VaLoRA's swift one-shot switcher of §4.4.1 and the
// dLoRA-style per-layer switcher it is compared against).
package lora

import (
	"fmt"

	"valora/internal/lmm"
	"valora/internal/train"
)

// Adapter is the runtime descriptor of one generated LoRA adapter.
type Adapter struct {
	ID   int
	Name string
	Rank int
	// Model is the LMM the adapter was trained for.
	Model lmm.Config
	// Head determines answer length at serving time (§4.2.2).
	Head train.HeadKind
	// Domains lists the fused knowledge domains (from the offline
	// generation phase).
	Domains []string
}

// Bytes reports the resident footprint of the adapter's A and B
// matrices.
func (a *Adapter) Bytes() int64 {
	return a.Model.AdapterBytes(a.Rank)
}

func (a *Adapter) String() string {
	return fmt.Sprintf("adapter %d (%s, rank %d, %s, %.1f MB)",
		a.ID, a.Name, a.Rank, a.Head, float64(a.Bytes())/float64(1<<20))
}

// Registry holds the adapters a server can route requests to.
type Registry struct {
	byID map[int]*Adapter
}

// NewRegistry builds a registry.
func NewRegistry(adapters ...*Adapter) *Registry {
	r := &Registry{byID: make(map[int]*Adapter)}
	for _, a := range adapters {
		r.Add(a)
	}
	return r
}

// Add registers an adapter; later registrations with the same ID
// replace earlier ones.
func (r *Registry) Add(a *Adapter) {
	r.byID[a.ID] = a
}

// Get looks an adapter up by ID.
func (r *Registry) Get(id int) (*Adapter, bool) {
	a, ok := r.byID[id]
	return a, ok
}

// Len reports the number of registered adapters.
func (r *Registry) Len() int { return len(r.byID) }

// MakeUniformAdapters is a convenience for experiments: n adapters of
// one rank for one model.
func MakeUniformAdapters(model lmm.Config, n, rank int) []*Adapter {
	out := make([]*Adapter, n)
	for i := range out {
		out[i] = &Adapter{
			ID:    i,
			Name:  fmt.Sprintf("lora-%d", i),
			Rank:  rank,
			Model: model,
			Head:  train.LMHead,
		}
	}
	return out
}
