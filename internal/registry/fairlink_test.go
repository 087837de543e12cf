package registry

import (
	"testing"
	"time"

	"valora/internal/lmm"
	"valora/internal/lora"
)

// plainAdapters builds n standalone (family-free) adapters owned by
// tenantOf: with one chunk per adapter each adapter is exactly one
// transfer, which makes link-scheduling assertions crisp.
func plainAdapters(n int, tenantOf func(id int) string) *Catalog {
	model := lmm.QwenVL7B()
	adapters := lora.MakeUniformAdapters(model, n, model.DefaultRank)
	return CatalogFromAdapters(adapters, tenantOf)
}

// TestLinkSharesConvergeToWeights saturates one replica link with two
// tenants' cold sweeps under weights a:1, b:3 and checks that
// mid-drain, completed bytes split by weight: the property the
// per-tenant fair queue promises under saturation.
func TestLinkSharesConvergeToWeights(t *testing.T) {
	model := lmm.QwenVL7B()
	ab := model.AdapterBytes(model.DefaultRank)
	const perTenant = 24
	tenantOf := func(id int) string {
		if id < perTenant {
			return "a"
		}
		return "b"
	}
	cat := plainAdapters(2*perTenant, tenantOf)
	s := NewStore(Config{
		HostCapacity:    int64(2*perTenant+1) * ab,
		RemoteLatency:   time.Millisecond,
		RemoteBandwidth: 1e9,
		ChunkSize:       ab,
		MaxInflight:     2 * perTenant,
		LinkWeights:     map[string]float64{"a": 1, "b": 3},
	}, cat)
	// Interleave the sweeps so arrival order cannot explain the split.
	for i := 0; i < perTenant; i++ {
		if _, ok := s.Prefetch(i, 0); !ok {
			t.Fatalf("prefetch %d denied", i)
		}
		if _, ok := s.Prefetch(perTenant+i, 0); !ok {
			t.Fatalf("prefetch %d denied", perTenant+i)
		}
	}
	// Advance to the middle of the drain: both tenants still
	// backlogged, so the weighted shares must hold.
	chunkTime := time.Duration(float64(ab) / 1e9 * float64(time.Second))
	mid := time.Duration(perTenant) * chunkTime
	s.Advance(mid + 10*time.Millisecond)
	resA, resB := 0, 0
	for i := 0; i < perTenant; i++ {
		if s.HostResident(i, mid) {
			resA++
		}
		if s.HostResident(perTenant+i, mid) {
			resB++
		}
	}
	if resA == perTenant || resB == perTenant {
		t.Fatalf("mid-drain but a tenant already finished: a=%d b=%d", resA, resB)
	}
	ratio := float64(resB) / float64(resA)
	if ratio < 2.0 || ratio > 4.0 {
		t.Fatalf("weighted shares diverge: a completed %d, b completed %d (ratio %.2f, want ~3)", resA, resB, ratio)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDemandNotStarvedBehindPrefetchSweep: with tenant a's cold
// prefetch sweep saturating the link, tenant b's lone demand fetch
// must complete in bounded time — behind at most the transfer in
// service and one fair-share round — not behind the whole sweep.
func TestDemandNotStarvedBehindPrefetchSweep(t *testing.T) {
	model := lmm.QwenVL7B()
	ab := model.AdapterBytes(model.DefaultRank)
	const sweep = 40
	tenantOf := func(id int) string {
		if id < sweep {
			return "a"
		}
		return "b"
	}
	cat := plainAdapters(sweep+1, tenantOf)
	s := NewStore(Config{
		HostCapacity:    int64(sweep+2) * ab,
		RemoteLatency:   time.Millisecond,
		RemoteBandwidth: 1e9,
		ChunkSize:       ab,
		MaxInflight:     sweep + 1,
	}, cat)
	for i := 0; i < sweep; i++ {
		if _, ok := s.Prefetch(i, 0); !ok {
			t.Fatalf("prefetch %d denied", i)
		}
	}
	chunkTime := time.Duration(float64(ab) / 1e9 * float64(time.Second))
	// The demand arrives mid-sweep. The SFQ arrival rule bumps b's
	// service tag to the backlogged minimum, so b waits for at most
	// the transfer on the wire plus one of a's chunks before its own
	// transfer runs.
	arrive := 2*chunkTime + chunkTime/2
	st, eta, _ := s.Demand(sweep, arrive)
	if st != StatusStarted {
		t.Fatalf("demand mid-sweep: %v, want started", st)
	}
	bound := arrive + 3*chunkTime + s.cfg.RemoteLatency
	if eta > bound {
		t.Fatalf("demand starved behind the sweep: eta %v > bound %v (sweep drains at %v)",
			eta, bound, time.Duration(sweep)*chunkTime)
	}
	// And the sweep is not aborted: everything still lands.
	now := drain(s, arrive)
	for i := 0; i <= sweep; i++ {
		if !s.HostResident(i, now) {
			t.Fatalf("adapter %d missing after drain", i)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDemandNotStarvedAcrossTenantsWithWeights is the adversarial
// variant: the sweeping tenant holds a *larger* weight, yet another
// tenant's demand still completes within its weighted share of the
// wire — fair queuing degrades the demand's latency proportionally,
// never to starvation.
func TestDemandNotStarvedAcrossTenantsWithWeights(t *testing.T) {
	model := lmm.QwenVL7B()
	ab := model.AdapterBytes(model.DefaultRank)
	const sweep = 40
	tenantOf := func(id int) string {
		if id < sweep {
			return "a"
		}
		return "b"
	}
	cat := plainAdapters(sweep+1, tenantOf)
	s := NewStore(Config{
		HostCapacity:    int64(sweep+2) * ab,
		RemoteLatency:   time.Millisecond,
		RemoteBandwidth: 1e9,
		ChunkSize:       ab,
		MaxInflight:     sweep + 1,
		LinkWeights:     map[string]float64{"a": 8, "b": 1},
	}, cat)
	for i := 0; i < sweep; i++ {
		s.Prefetch(i, 0)
	}
	chunkTime := time.Duration(float64(ab) / 1e9 * float64(time.Second))
	arrive := chunkTime / 2
	st, eta, _ := s.Demand(sweep, arrive)
	if st != StatusStarted {
		t.Fatalf("demand mid-sweep: %v, want started", st)
	}
	// Weight 8:1 means b may wait ~8 of a's chunks per round plus the
	// one in service — still a constant bound, nowhere near the
	// 40-chunk sweep drain.
	bound := arrive + 11*chunkTime + s.cfg.RemoteLatency
	if eta > bound {
		t.Fatalf("weighted demand starved: eta %v > bound %v", eta, bound)
	}
}

// TestLinkCycleZeroAlloc pins a link's steady state: every chunk
// transfer lives in its chunk and reschedule works in per-link
// scratch, so once the link has seen its tenants, adding one transfer
// per tenant (rescheduling the backlog after each, at least the work
// of one fetch) and popping them all allocates nothing.
func TestLinkCycleZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime's instrumentation allocates, so allocation counts only hold without -race")
	}
	cfg := Config{RemoteBandwidth: 1e9, LinkWeights: map[string]float64{"a": 2, "b": 1}}
	tenants := []string{"a", "b", "c", "a"}
	l := newLink(0)
	var chunks []*chunk
	for i := range tenants {
		chunks = append(chunks, &chunk{digest: uint64(i), bytes: 1 << 20})
	}
	var seq int64
	var now time.Duration
	cycle := func() {
		for i, c := range chunks {
			seq++
			// Even-indexed tenants add demand-class transfers, the rest
			// prefetch-class ones.
			l.add(c.startTransfer(tenants[i], i%2 == 0, seq), &cfg)
			l.reschedule(now, &cfg)
		}
		for len(l.queue) > 0 {
			tr := l.pop()
			now = tr.done
			tr.ch.tr = nil
		}
	}
	cycle() // warm: the first cycle adds the tenants' tags and grows scratch
	if got := testing.AllocsPerRun(200, cycle); got != 0 {
		t.Errorf("link add/reschedule/pop: %.1f allocs per cycle at steady state, want 0", got)
	}
}
