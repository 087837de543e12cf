// Package servingtest builds serving fixtures that tests and benchmarks
// in more than one package share, so a gate and the benchmark timing
// the same path run one definition of it.
package servingtest

import (
	"fmt"
	"time"

	"valora/internal/lmm"
	"valora/internal/lora"
	"valora/internal/registry"
	"valora/internal/sched"
	"valora/internal/serving"
	"valora/internal/simgpu"
)

// storeChurnInFlight is the number of requests the fixture keeps in
// flight: fewer than the pool's 8 adapters, so no batch holds more
// distinct adapters than the pool and no Step takes the CapacityError
// cold path.
const storeChurnInFlight = 6

// StoreChurn is one VaLoRA server over a churning chunked host tier.
// It serves 16 adapters in 4 families, whose siblings share half their
// bytes, through a host tier of 6 adapters cut into chunks of 1/8
// adapter on 2 replica links. The GPU pool holds 8 adapters. Each new
// request goes to the adapter 7 past the previous one's, so
// consecutive requests step through all 16 adapters and the 4
// families: every GPU swap-in misses the host tier, which evicts and
// refetches private chunks while family prefixes stay shared.
//
// Requests come from a ring far deeper than the in-flight set and are
// rewritten in place, so the only allocations a Step makes are the
// engine's own.
type StoreChurn struct {
	Server *serving.Server
	Store  *registry.Store

	adapters int
	reqs     []sched.Request
	id       int64
}

// NewStoreChurn builds the fixture with nothing submitted yet.
func NewStoreChurn() (*StoreChurn, error) {
	model := lmm.QwenVL7B()
	adapters := lora.MakeUniformAdapters(model, 16, model.DefaultRank)
	ab := adapters[0].Bytes()
	cat := registry.CatalogFromFamilies(adapters, nil, func(id int) (string, int64) {
		return []string{"f0", "f1", "f2", "f3"}[id%4], ab / 2
	})
	store := registry.NewStore(registry.Config{
		HostCapacity:    6 * ab,
		RemoteLatency:   time.Millisecond,
		RemoteBandwidth: 20e9,
		ChunkSize:       ab / 8,
		Replicas:        2,
	}, cat)
	opts, err := serving.SystemOptions(serving.SystemVaLoRA, simgpu.A100(), model)
	if err != nil {
		return nil, err
	}
	opts.Registry = lora.NewRegistry(adapters...)
	opts.AdapterPoolBytes = 8 * ab
	opts.Store = store
	srv, err := serving.NewServer(opts)
	if err != nil {
		return nil, err
	}
	return &StoreChurn{
		Server:   srv,
		Store:    store,
		adapters: len(adapters),
		reqs:     make([]sched.Request, 64*storeChurnInFlight),
	}, nil
}

// Step tops the in-flight set back up with requests stamped at the
// server's clock, then runs one Server.Step, which must make progress.
func (f *StoreChurn) Step() error {
	for f.Server.InFlight() < storeChurnInFlight {
		r := &f.reqs[f.id%int64(len(f.reqs))]
		if f.id >= int64(len(f.reqs)) && r.Phase != sched.PhaseDone {
			return fmt.Errorf("request %d still in flight when its ring slot came round", r.ID)
		}
		f.id++
		*r = sched.Request{
			ID:           f.id,
			AdapterID:    int(f.id*7) % f.adapters,
			InputTokens:  32 + int(f.id%3)*16,
			OutputTokens: 2 + int(f.id%3),
			Arrival:      f.Server.Now(),
		}
		f.Server.Submit(r)
	}
	ok, err := f.Server.Step()
	if err == nil && !ok {
		err = fmt.Errorf("step made no progress with %d requests in flight", f.Server.InFlight())
	}
	return err
}
