// Package trace captures per-request serving observations: one
// structured row per completed request (arrival, admission,
// first-token, completion, token counts, adapter, tenant, cold-start
// and preemption accounting). The rows are the observe half of the
// observe–predict–calibrate loop — valora-calibrate fits the
// simulator's cost-model coefficients to a captured trace and reports
// how well the simulated TTFT/E2E distributions reproduce it — and
// double as the export format of cmd/valora-server's per-request
// flight recorder.
//
// Output is deterministic: rows serialize in (Finish, ID, Instance)
// order regardless of the append schedule, so captures from sharded
// or concurrent runs are byte-identical to their sequential
// reference.
package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Record is one completed request's observation row. Durations are
// virtual times in nanoseconds since the run's epoch (time.Duration's
// JSON encoding), so arithmetic on loaded rows is exact.
type Record struct {
	ID       int64  `json:"id"`
	Tenant   string `json:"tenant,omitempty"`
	Adapter  int    `json:"adapter"`
	System   string `json:"system,omitempty"`
	Instance int    `json:"instance"`

	Arrival time.Duration `json:"arrival_ns"`
	// Admission is the request's first scheduling instant (the start of
	// the iteration that began its prefill); Admission-Arrival is the
	// queueing delay the scheduler imposed.
	Admission  time.Duration `json:"admission_ns"`
	FirstToken time.Duration `json:"first_token_ns"`
	Finish     time.Duration `json:"finish_ns"`

	InputTokens  int `json:"input_tokens"`
	OutputTokens int `json:"output_tokens"`
	// SharedTokens is the prompt prefix served from the prefix cache
	// (those tokens were never prefilled).
	SharedTokens int `json:"shared_tokens,omitempty"`
	Images       int `json:"images,omitempty"`

	// ColdStart marks a request that arrived while its adapter was not
	// host-resident (a remote fetch stood between it and its first
	// token). Preemptions counts mid-service displacements;
	// RecomputeTokens the already-computed tokens those displacements
	// re-prefilled.
	ColdStart       bool `json:"cold_start,omitempty"`
	Preemptions     int  `json:"preemptions,omitempty"`
	RecomputeTokens int  `json:"recompute_tokens,omitempty"`
}

// QueueWait reports the scheduling delay before the request's first
// iteration.
func (r Record) QueueWait() time.Duration { return r.Admission - r.Arrival }

// TTFT reports the observed time to first token.
func (r Record) TTFT() time.Duration { return r.FirstToken - r.Arrival }

// E2E reports the observed end-to-end latency.
func (r Record) E2E() time.Duration { return r.Finish - r.Arrival }

// Recorder accumulates records. It is safe for concurrent appends
// (the HTTP frontend serves several live engines at once); in
// single-threaded simulation runs the mutex is uncontended. Row order
// as appended is not part of the contract — Rows and WriteJSONL
// canonicalize.
type Recorder struct {
	mu   sync.Mutex
	rows []Record
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Append records one row.
//
//valora:hotpath
func (rec *Recorder) Append(r Record) {
	rec.mu.Lock()
	rec.rows = append(rec.rows, r)
	rec.mu.Unlock()
}

// Len reports the number of recorded rows.
func (rec *Recorder) Len() int {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return len(rec.rows)
}

// Reset discards all recorded rows, keeping the backing capacity.
func (rec *Recorder) Reset() {
	rec.mu.Lock()
	rec.rows = rec.rows[:0]
	rec.mu.Unlock()
}

// Rows returns a canonically ordered copy of the recorded rows:
// sorted by (Finish, ID, Instance), independent of append order.
func (rec *Recorder) Rows() []Record {
	rec.mu.Lock()
	out := make([]Record, len(rec.rows))
	copy(out, rec.rows)
	rec.mu.Unlock()
	sortRecords(out)
	return out
}

// sortRecords orders rows canonically by (Finish, ID, Instance).
func sortRecords(rows []Record) {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Finish != rows[j].Finish {
			return rows[i].Finish < rows[j].Finish
		}
		if rows[i].ID != rows[j].ID {
			return rows[i].ID < rows[j].ID
		}
		return rows[i].Instance < rows[j].Instance
	})
}

// WriteJSONL serializes the recorder's rows in canonical order, one
// JSON object per line. The field order is the Record struct order,
// so identical captures are byte-identical.
func (rec *Recorder) WriteJSONL(w io.Writer) error {
	return WriteJSONL(w, rec.Rows())
}

// WriteJSONL writes rows as JSON lines (the rows are serialized as
// given; use sortRecords or Recorder.Rows for canonical order).
func WriteJSONL(w io.Writer, rows []Record) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	enc.SetEscapeHTML(false)
	for i := range rows {
		if err := enc.Encode(&rows[i]); err != nil {
			return fmt.Errorf("trace: encoding row %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// maxLineBytes bounds one JSONL line, its newline included.
const maxLineBytes = 4 << 20

// ReadJSONL loads a JSONL trace. Blank lines are skipped; any other
// malformed line is an error naming its line number. So is a row that
// WriteJSONL would write past maxLineBytes, since the rewritten trace
// could not be read back: decoding turns an invalid UTF-8 byte into a
// 3-byte U+FFFD, and encoding escapes a raw U+2028 or U+2029 to 6
// bytes.
func ReadJSONL(r io.Reader) ([]Record, error) {
	var rows []Record
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	enc.SetEscapeHTML(false) // as WriteJSONL writes
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		out.Reset()
		if err := enc.Encode(&rec); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		if out.Len() > maxLineBytes {
			return nil, fmt.Errorf("trace: line %d: the row rewrites to a %d-byte line, past the %d-byte limit", line, out.Len(), maxLineBytes)
		}
		rows = append(rows, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: reading: %w", err)
	}
	return rows, nil
}
