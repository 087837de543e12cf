package serving_test

import (
	"testing"

	"valora/internal/serving/servingtest"
)

// BenchmarkStepStoreChurn times one Step of a VaLoRA instance over a
// churning chunked host tier, on the fixture of the analysis package's
// TestStepStoreChurnZeroAlloc (servingtest.StoreChurn). Every swap-in
// misses the host tier, so each Step drives the fetch, landing and
// eviction path; allocs/op reads 0 once the spare records and the
// chunks' waiter slices have grown.
func BenchmarkStepStoreChurn(b *testing.B) {
	f, err := servingtest.NewStoreChurn()
	if err != nil {
		b.Fatal(err)
	}
	for range 1000 { // grow the spare lists and scratch buffers
		if err := f.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Step(); err != nil {
			b.Fatal(err)
		}
	}
}
