package workload

import (
	"testing"
	"time"

	"valora/internal/sched"
)

// maxGenStressAllocs bounds GenStress(100_000)'s allocations: 25
// request blocks, the trace slice, the seeded source and the adapter
// picker, measured at 32, plus headroom for Go version drift. One
// allocation per request would read 100k.
const maxGenStressAllocs = 48

// TestGenStressAllocatesInBlocks gates the block allocator: a
// generated trace's requests come from a few dozen blocks, not one
// heap object each.
func TestGenStressAllocatesInBlocks(t *testing.T) {
	cfg := DefaultStress(100_000, 3)
	allocs := testing.AllocsPerRun(3, func() { GenStress(cfg) })
	t.Logf("%.0f allocations per GenStress(%d) (bound %d)", allocs, cfg.Requests, maxGenStressAllocs)
	if allocs > maxGenStressAllocs {
		t.Fatalf("GenStress(%d) made %.0f allocations, bound %d", cfg.Requests, allocs, maxGenStressAllocs)
	}
}

// TestTraceRequestsDistinct: every generator hands out a distinct
// request per trace entry, across block boundaries and after Merge's
// re-sort, and a write to one request leaves every other unchanged.
func TestTraceRequestsDistinct(t *testing.T) {
	traces := map[string]Trace{
		"stress":       GenStress(DefaultStress(3*reqBlockLen+7, 5)),
		"retrieval":    GenRetrieval(DefaultRetrieval(200, 40*time.Second, 8, 0.5, 5)),
		"video":        GenVideo(DefaultVideo(40, 60*time.Second, 8, 0.5, 5)),
		"fleet":        GenFleet(DefaultFleet(20, 10, 20, 60*time.Second, 5)),
		"multi-tenant": GenMultiTenant(DefaultMultiTenant(60*time.Second, 4, 5)),
	}
	for name, tr := range traces {
		if len(tr) <= reqBlockLen {
			t.Fatalf("%s: %d requests fill one block; the test needs more than %d", name, len(tr), reqBlockLen)
		}
		seen := make(map[*sched.Request]bool, len(tr))
		for i, r := range tr {
			if seen[r] {
				t.Fatalf("%s: request %d shares its pointer with an earlier entry", name, i)
			}
			seen[r] = true
		}

		before := make([]sched.Request, len(tr))
		for i, r := range tr {
			before[i] = *r
		}
		for _, i := range []int{0, reqBlockLen - 1, reqBlockLen, len(tr) - 1} {
			w := tr[i]
			*w = sched.Request{ID: -1, AdapterID: -1, Tenant: "written", InputTokens: -1, Emitted: -1, Finish: -1, Slot: -1, PreemptCount: 255}
			for j, r := range tr {
				if j != i && *r != before[j] {
					t.Fatalf("%s: writing request %d changed request %d", name, i, j)
				}
			}
			*w = before[i]
		}
	}
}

// BenchmarkGenStress times generating a 100k-request stress trace and
// reports its allocations, which the block allocator keeps to a few
// dozen.
func BenchmarkGenStress(b *testing.B) {
	cfg := DefaultStress(100_000, 1)
	b.ReportAllocs()
	for b.Loop() {
		GenStress(cfg)
	}
}
