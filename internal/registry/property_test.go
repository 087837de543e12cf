package registry

import (
	"testing"
	"time"

	"valora/internal/lmm"
	"valora/internal/lora"
)

// TestPinnedNeverEvicted replays a hostile sequence: one tenant's
// pinned entry must survive a storm of other-tenant fetches that
// overflows the cache many times over.
func TestPinnedNeverEvicted(t *testing.T) {
	model := lmm.QwenVL7B()
	adapters := lora.MakeUniformAdapters(model, 32, model.DefaultRank)
	ab := adapters[0].Bytes()
	cat := CatalogFromAdapters(adapters, func(id int) string {
		if id == 0 {
			return "vip"
		}
		return "noise"
	})
	s := NewStore(Config{HostCapacity: 3 * ab, RemoteLatency: time.Millisecond, RemoteBandwidth: 1e12}, cat)
	if err := s.SetQuota("vip", TenantQuota{GuaranteedBytes: ab}); err != nil {
		t.Fatal(err)
	}

	_, eta, _ := s.Demand(0, 0)
	now := eta
	s.Advance(now)
	if !s.HostResident(0, now) {
		t.Fatal("vip adapter should be resident")
	}
	for id := 1; id < 32; id++ {
		if _, eta, _ := s.Demand(id, now); eta > now {
			now = eta
		}
		s.Advance(now)
		if !s.HostResident(0, now) {
			t.Fatalf("vip adapter evicted during noise fetch %d", id)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}
