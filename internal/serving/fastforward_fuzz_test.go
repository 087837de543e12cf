package serving

import (
	"fmt"
	"testing"
	"time"

	"valora/internal/lmm"
	"valora/internal/lora"
	"valora/internal/registry"
	"valora/internal/sched"
	"valora/internal/simgpu"
	"valora/internal/trace"
	"valora/internal/workload"
)

// FuzzStepFastForward decodes a small fleet and trace from the fuzz
// bytes and replays them with fast-forward off and on. Every request
// must complete, be rejected or be shed, and the two runs must agree
// exactly (see TestFastForwardMatchesPerIteration).
//
// The first byte holds the switches: bit 0 deadlines, bit 1 a shared
// registry store, bit 2 a managed cluster, bits 3-4 the tenant count
// less one, bit 5 round-robin dispatch instead of least-loaded, bit 6
// urgency-weighted starvation credit in the policy, bit 7 a small
// credit tolerance θ. The second picks one to three instances (its
// value mod 3) and, with bit 7 on, θ: 25 ms plus its value divided by
// 3, mod 32, in milliseconds. Less the policy's 25 ms of EstExec and
// SwitchLat, that holds a decision for 0 to 31 ms, about as long as a
// decode iteration, so held windows both last and run out. A lone
// unmanaged instance replays standalone. Each further four bytes are
// one request: the gap to its arrival in whole milliseconds (so
// arrivals tie), its adapter (low three bits) and, with deadlines on,
// whether it carries one (high bit), its prompt length, and its output
// length less one.
func FuzzStepFastForward(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c, n := fuzzFFCase(data)
		if n == 0 {
			return
		}
		var ref, got ffOutcome
		withFastForward(false, func() { ref = runFFCase(t, c) })
		withFastForward(true, func() { got = runFFCase(t, c) })
		compareFF(t, ref, got)
		rep := got.rep
		if done := rep.Completed + rep.Rejected + rep.Shed; done != n || rep.Requests != n {
			t.Fatalf("%d requests: %d submitted, %d completed, %d rejected, %d shed", n, rep.Requests, rep.Completed, rep.Rejected, rep.Shed)
		}
		for _, r := range got.reqs {
			if r.Phase != sched.PhaseDone {
				t.Fatalf("request %d ended in phase %v", r.ID, r.Phase)
			}
		}
	})
}

// fuzzFFMaxRequests bounds a fuzzed trace.
const fuzzFFMaxRequests = 48

// fuzzFFCase decodes data (see FuzzStepFastForward) into a case and
// its request count; 0 requests means data decodes to no case.
func fuzzFFCase(data []byte) (ffCase, int) {
	if len(data) < 6 {
		return ffCase{}, 0
	}
	hdr := data[0]
	deadlines, withStore, managed := hdr&1 != 0, hdr&2 != 0, hdr&4 != 0
	tenants := 1 + int(hdr>>3&3)
	roundRobin, deadlineCredit, smallTheta := hdr&32 != 0, hdr&64 != 0, hdr&128 != 0
	instances := 1 + int(data[1]%3)
	theta := 25*time.Millisecond + time.Duration(data[1]/3%32)*time.Millisecond
	body := data[2:]
	n := min(len(body)/4, fuzzFFMaxRequests)
	model := lmm.QwenVL7B()
	genTrace := func() workload.Trace {
		tr := make(workload.Trace, 0, n)
		var at time.Duration
		for i := range n {
			b := body[4*i : 4*i+4]
			at += time.Duration(b[0]) * time.Millisecond
			r := &sched.Request{
				ID:           int64(i + 1),
				Tenant:       fmt.Sprintf("t%d", i%tenants),
				AdapterID:    int(b[1] & 7),
				InputTokens:  16 + 4*int(b[2]),
				OutputTokens: 1 + int(b[3]),
				Arrival:      at,
			}
			if deadlines && b[1]&0x80 != 0 {
				r.Deadline = time.Duration(100+int(b[0])*10) * time.Millisecond
			}
			tr = append(tr, r)
		}
		return tr
	}
	run := func(t *testing.T, rec *trace.Recorder) (*Report, workload.Trace, []*Server) {
		adapters := lora.MakeUniformAdapters(model, 8, model.DefaultRank)
		ab := adapters[0].Bytes()
		var store *registry.Store
		if withStore {
			store = registry.NewStore(registry.Config{
				HostCapacity:    4 * ab,
				RemoteLatency:   5 * time.Millisecond,
				RemoteBandwidth: 2.5e9,
				ChunkSize:       ab / 8,
			}, registry.CatalogFromAdapters(adapters, nil))
		}
		build := func(int) (Options, error) {
			opts, err := SystemOptions(SystemVaLoRA, simgpu.A100(), model)
			if err != nil {
				return Options{}, err
			}
			opts.Registry = lora.NewRegistry(adapters...)
			opts.AdapterPoolBytes = 3 * ab
			opts.Store = store
			if deadlineCredit || smallTheta {
				p := sched.NewVaLoRAPolicy()
				p.DeadlineCredit = deadlineCredit
				if smallTheta {
					p.Theta = theta
				}
				opts.Policy = p
			}
			return opts, nil
		}
		var dispatch DispatchPolicy = NewLeastLoaded()
		if roundRobin {
			dispatch = NewRoundRobin()
		}
		tr := genTrace()
		switch {
		case managed:
			cfg := SchedulingConfig{FairShare: true, HighWater: 4, Store: store}
			if deadlines {
				cfg.EstimateService = ServiceFloor(simgpu.A100(), model)
			}
			if withStore {
				cfg.PrefetchLookahead = 2
			}
			cl, err := NewManagedCluster(instances, dispatch, cfg, build)
			if err != nil {
				t.Fatal(err)
			}
			return clusterFF(t, cl, tr, rec, cl.Run)
		case instances > 1:
			cl, err := NewClusterWithDispatch(instances, dispatch, build)
			if err != nil {
				t.Fatal(err)
			}
			return clusterFF(t, cl, tr, rec, cl.Run)
		}
		opts, err := build(0)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(opts)
		if err != nil {
			t.Fatal(err)
		}
		srv.SetTraceRecorder(rec)
		logDecisions([]*Server{srv})
		return mustReport(t)(srv.Run(tr)), tr, []*Server{srv}
	}
	return ffCase{name: "fuzz", run: run}, n
}
