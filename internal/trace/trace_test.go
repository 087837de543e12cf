package trace

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"
)

func row(id int64, finish time.Duration, inst int) Record {
	return Record{
		ID:           id,
		Adapter:      int(id % 4),
		Instance:     inst,
		Arrival:      finish - 90*time.Millisecond,
		Admission:    finish - 80*time.Millisecond,
		FirstToken:   finish - 60*time.Millisecond,
		Finish:       finish,
		InputTokens:  128,
		OutputTokens: 32,
	}
}

// TestRecorderCanonicalOrder appends out of order and expects Rows /
// WriteJSONL to canonicalize on (Finish, ID, Instance).
func TestRecorderCanonicalOrder(t *testing.T) {
	rec := NewRecorder()
	rec.Append(row(3, 300*time.Millisecond, 1))
	rec.Append(row(1, 100*time.Millisecond, 0))
	rec.Append(row(4, 300*time.Millisecond, 0)) // same finish, higher ID
	rec.Append(row(2, 200*time.Millisecond, 2))
	rows := rec.Rows()
	wantIDs := []int64{1, 2, 3, 4}
	for i, id := range wantIDs {
		if rows[i].ID != id {
			t.Fatalf("row %d: got ID %d, want %d (rows %v)", i, rows[i].ID, id, rows)
		}
	}
}

// TestJSONLRoundTrip writes and reloads a trace, expecting identity,
// and checks serialization is byte-identical across append orders.
func TestJSONLRoundTrip(t *testing.T) {
	a, b := NewRecorder(), NewRecorder()
	rowsIn := []Record{
		row(1, 100*time.Millisecond, 0),
		row(2, 150*time.Millisecond, 1),
		{ID: 3, Tenant: "realtime", Adapter: 7, System: "VaLoRA", Instance: 2,
			Arrival: time.Second, Admission: time.Second + time.Millisecond,
			FirstToken: time.Second + 30*time.Millisecond, Finish: 2 * time.Second,
			InputTokens: 512, OutputTokens: 64, SharedTokens: 256, Images: 2,
			ColdStart: true, Preemptions: 1, RecomputeTokens: 96},
	}
	for _, r := range rowsIn {
		a.Append(r)
	}
	for i := len(rowsIn) - 1; i >= 0; i-- {
		b.Append(rowsIn[i])
	}
	var bufA, bufB bytes.Buffer
	if err := a.WriteJSONL(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSONL(&bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatalf("append order leaked into serialization:\n%s\nvs\n%s", bufA.String(), bufB.String())
	}
	back, err := ReadJSONL(&bufA)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(rowsIn) {
		t.Fatalf("got %d rows back, want %d", len(back), len(rowsIn))
	}
	for _, r := range back {
		if r.ID == 3 {
			if !r.ColdStart || r.Preemptions != 1 || r.RecomputeTokens != 96 || r.Tenant != "realtime" {
				t.Fatalf("row 3 lost fields: %+v", r)
			}
			if r.TTFT() != time.Second+30*time.Millisecond-time.Second {
				t.Fatalf("TTFT arithmetic wrong: %v", r.TTFT())
			}
		}
	}
}

func TestReadJSONLErrors(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{\"id\":1}\nnot json\n")); err == nil {
		t.Fatal("malformed line should error")
	}
	rows, err := ReadJSONL(strings.NewReader("\n\n"))
	if err != nil || len(rows) != 0 {
		t.Fatalf("blank lines should be skipped: %v %v", rows, err)
	}
}

// FuzzReadJSONL feeds arbitrary bytes to ReadJSONL, valora-calibrate's
// input path. It must never panic, and a trace it reads must come back
// unchanged through WriteJSONL and a second ReadJSONL.
func FuzzReadJSONL(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, rows); err != nil {
			t.Fatalf("writing %d rows read back: %v", len(rows), err)
		}
		again, err := ReadJSONL(&buf)
		if err != nil {
			t.Fatalf("reading the rewritten trace: %v\n%s", err, buf.Bytes())
		}
		if !slices.Equal(rows, again) {
			t.Fatalf("rows changed through a write and read:\n%+v\n%+v", rows, again)
		}
	})
}

func TestDerivedDurations(t *testing.T) {
	r := row(1, 100*time.Millisecond, 0)
	if r.QueueWait() != 10*time.Millisecond {
		t.Fatalf("queue wait %v", r.QueueWait())
	}
	if r.TTFT() != 30*time.Millisecond {
		t.Fatalf("ttft %v", r.TTFT())
	}
	if r.E2E() != 90*time.Millisecond {
		t.Fatalf("e2e %v", r.E2E())
	}
}

// TestAppendAllocs pins the steady-state append path to zero
// allocations (the record is appended by value into pre-grown backing;
// growth events are amortized away by pre-filling).
func TestAppendAllocs(t *testing.T) {
	rec := NewRecorder()
	for i := 0; i < 4096; i++ {
		rec.Append(row(int64(i), time.Duration(i)*time.Millisecond, 0))
	}
	rec.Reset()
	r := row(1, time.Millisecond, 0)
	if n := testing.AllocsPerRun(1000, func() { rec.Append(r) }); n > 0 {
		t.Fatalf("Recorder.Append allocates %.1f times per call on the steady path", n)
	}
}
