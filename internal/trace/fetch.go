package trace

import (
	"sort"
	"sync"
	"time"
)

// FetchRecord is one completed adapter fetch as observed by a
// registry store: the bytes that actually crossed the replica links
// (deduped chunks count once — zero when the fetch rode entirely on
// sibling transfers), the adapter's chunk count, and the
// request/complete virtual times. The rows are the fetch-cost half of
// the observe–predict–calibrate loop: calib.FitFetchCost recovers the
// link's base latency and per-byte cost from them.
type FetchRecord struct {
	Tenant string
	Family string
	// Bytes this fetch put on the links; Chunks is the adapter's chunk
	// count, resident and deduped chunks included, not the transfers
	// this fetch enqueued.
	Bytes  int64
	Chunks int
	Demand bool

	Requested time.Duration
	Done      time.Duration
}

// Duration reports the observed fetch latency.
func (r FetchRecord) Duration() time.Duration { return r.Done - r.Requested }

// FetchRecorder accumulates fetch records; the registry store's fetch
// observer appends under the store lock, so Append stays cheap. Row
// order as appended is not part of the contract — Rows canonicalizes
// by (Done, Requested, Bytes, Tenant).
type FetchRecorder struct {
	mu   sync.Mutex
	rows []FetchRecord
}

// NewFetchRecorder returns an empty fetch recorder.
func NewFetchRecorder() *FetchRecorder { return &FetchRecorder{} }

// Append records one fetch row.
func (rec *FetchRecorder) Append(r FetchRecord) {
	rec.mu.Lock()
	rec.rows = append(rec.rows, r)
	rec.mu.Unlock()
}

// Len reports the number of recorded rows.
func (rec *FetchRecorder) Len() int {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return len(rec.rows)
}

// Rows returns a canonically ordered copy of the recorded rows.
func (rec *FetchRecorder) Rows() []FetchRecord {
	rec.mu.Lock()
	out := make([]FetchRecord, len(rec.rows))
	copy(out, rec.rows)
	rec.mu.Unlock()
	sortFetchRecords(out)
	return out
}

// sortFetchRecords orders rows canonically by (Done, Requested,
// Bytes, Tenant).
func sortFetchRecords(rows []FetchRecord) {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Done != rows[j].Done {
			return rows[i].Done < rows[j].Done
		}
		if rows[i].Requested != rows[j].Requested {
			return rows[i].Requested < rows[j].Requested
		}
		if rows[i].Bytes != rows[j].Bytes {
			return rows[i].Bytes < rows[j].Bytes
		}
		return rows[i].Tenant < rows[j].Tenant
	})
}
