package serving

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"valora/internal/lmm"
	"valora/internal/simgpu"
)

// TestAppendStringMatchesEncodingJSON holds the wire string encoder
// byte-identical to encoding/json on escapes, HTML characters, the
// JavaScript line separators, invalid UTF-8 and random bytes.
func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	cases := []string{
		"", "plain", "Qwen-VL-7B", oddModel, "quote\" back\\slash /",
		"\x00\x01\x1f\x7f\b\f\n\r\t", "<script>&amp;</script>", "café ünïcødé 日本 😀",
		"line\u2028para\u2029end", "bad \xff\xfe utf8 \xc3", "truncated \xe6\x97",
		"\xed\xa0\x80 surrogate",
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(24))
		for j := range b {
			b[j] = byte(rng.Intn(256))
		}
		cases = append(cases, string(b))
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("appendString(%q) = %s, encoding/json writes %s", s, got, want)
		}
	}
}

// TestAppendFloatMatchesEncodingJSON holds the wire float encoder
// byte-identical to encoding/json, across both format switch points
// and random bit patterns.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	cases := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.99999e-7, 1e-7, 1e20, 1e21, 123456789.125,
		math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64, 3.5e-9}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		cases = append(cases, f, float64(rng.Int63n(1<<40))/1e6)
	}
	for _, f := range cases {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendFloat(nil, f); !bytes.Equal(got, want) {
			t.Fatalf("appendFloat(%v) = %s, encoding/json writes %s", f, got, want)
		}
	}
}

// TestWireBufPoolDropsLargeBuffers keeps buffers past the cap out of
// the pool, so one long stream cannot pin its buffer.
func TestWireBufPoolDropsLargeBuffers(t *testing.T) {
	big := make([]byte, 0, 4*maxPooledWireBuf)
	putWireBuf(&big)
	for i := 0; i < 8; i++ {
		p := getWireBuf()
		if len(*p) != 0 || cap(*p) > maxPooledWireBuf {
			t.Fatalf("pool handed out len %d cap %d, cap bound %d", len(*p), cap(*p), maxPooledWireBuf)
		}
		defer putWireBuf(p)
	}
}

// reuseRecorder is a ResponseWriter whose header map and body buffer
// are reused across requests, so an allocation count sees the
// handler's allocations rather than the recorder's. It counts body
// writes and flushes, and notes how much of the body the first flush
// carried.
type reuseRecorder struct {
	header         http.Header
	code           int
	body           bytes.Buffer
	writes         int
	flushes        int
	flushedAtFirst int
}

func newReuseRecorder() *reuseRecorder { return &reuseRecorder{header: http.Header{}} }

func (r *reuseRecorder) Header() http.Header { return r.header }

func (r *reuseRecorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *reuseRecorder) Write(b []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	r.writes++
	return r.body.Write(b)
}

func (r *reuseRecorder) Flush() {
	if r.flushes == 0 {
		r.flushedAtFirst = r.body.Len()
	}
	r.flushes++
}

func (r *reuseRecorder) reset() {
	clear(r.header)
	r.code, r.writes, r.flushes, r.flushedAtFirst = 0, 0, 0, 0
	r.body.Reset()
}

// replayRequest is a POST whose body can be served again and again.
type replayRequest struct {
	req     *http.Request
	payload []byte
	body    *bytes.Reader
}

func newReplayRequest(path, payload string) *replayRequest {
	rr := &replayRequest{payload: []byte(payload)}
	rr.body = bytes.NewReader(rr.payload)
	rr.req = httptest.NewRequest(http.MethodPost, path, nil)
	rr.req.Body = io.NopCloser(rr.body)
	return rr
}

func (rr *replayRequest) serve(f *Frontend, rec *reuseRecorder) {
	rec.reset()
	rr.body.Reset(rr.payload)
	f.ServeHTTP(rec, rr.req)
}

// TestStreamTwoWrites pins the stream's write pattern on both
// endpoints: one write holding the chunks up to the first token,
// flushed at once, then one write with every other chunk and [DONE],
// left for the server to flush when the handler returns.
func TestStreamTwoWrites(t *testing.T) {
	for _, c := range []struct {
		path, body  string
		firstEvents int // events in the flushed first write
	}{
		{"/v1/chat/completions", `{"messages":[{"role":"user","content":"x"}],"stream":true,"max_tokens":7}`, 2},
		{"/v1/completions", `{"prompt":"x","stream":true,"max_tokens":7}`, 1},
		{"/v1/completions", `{"prompt":"x","stream":true,"max_tokens":1}`, 1},
	} {
		f := newTestFrontend(t)
		rec := newReuseRecorder()
		newReplayRequest(c.path, c.body).serve(f, rec)
		if rec.code != http.StatusOK || rec.writes != 2 || rec.flushes != 1 {
			t.Fatalf("%s: status %d, %d writes and %d flushes; want 200, 2 and 1", c.body, rec.code, rec.writes, rec.flushes)
		}
		first := rec.body.String()[:rec.flushedAtFirst]
		if n := strings.Count(first, "data: "); n != c.firstEvents || !strings.HasSuffix(first, "\n\n") {
			t.Fatalf("%s: first flush carries %d events, want %d whole ones: %q", c.body, n, c.firstEvents, first)
		}
		if !strings.Contains(first, `"content":"the"`) && !strings.Contains(first, `"text":"the"`) {
			t.Fatalf("%s: first flush lacks the first token: %q", c.body, first)
		}
		if !strings.HasSuffix(rec.body.String(), "data: [DONE]\n\n") {
			t.Fatalf("%s: stream does not end with [DONE]", c.body)
		}
	}
}

// chatBody is the chat request the live benchmark client sends, as it
// marshals it: a 20-token completion of a 318-byte inspection prompt.
func chatBody(stream bool) []byte {
	body, _ := json.Marshal(map[string]any{
		"model":      "count",
		"messages":   []map[string]string{{"role": "user", "content": strings.Repeat("inspect the insulator string on tower 17 for cracks; ", 6)}},
		"max_tokens": 20,
		"stream":     stream,
	})
	return body
}

// Allocation bounds of one chat call through Frontend.ServeHTTP,
// engine included, with chatBody's request: the measured 2
// (non-streamed) and 2 (streamed) plus headroom for Go version drift.
// net/http adds its own allocations per request on a real connection.
const (
	maxAllocsChat       = 11
	maxAllocsChatStream = 12
)

// TestOpenAIHandlerAllocs gates the allocations of a non-streamed and
// a streamed chat call on the live handler.
func TestOpenAIHandlerAllocs(t *testing.T) {
	for _, c := range []struct {
		name   string
		stream bool
		bound  float64
	}{
		{"chat", false, maxAllocsChat},
		{"chat-stream", true, maxAllocsChatStream},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := newTestFrontend(t)
			f.RegisterAdapters("detect", "count")
			rr := newReplayRequest("/v1/chat/completions", string(chatBody(c.stream)))
			rec := newReuseRecorder()
			allocs := testing.AllocsPerRun(200, func() { rr.serve(f, rec) })
			if rec.code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.code, rec.body.String())
			}
			t.Logf("%.1f allocations per call (bound %.0f)", allocs, c.bound)
			if allocs > c.bound {
				t.Fatalf("%.1f allocations per call, bound %.0f", allocs, c.bound)
			}
		})
	}
}

// BenchmarkOpenAIHandler times one chat call through Frontend.ServeHTTP,
// non-streamed and streamed, with the allocation gate's request.
func BenchmarkOpenAIHandler(b *testing.B) {
	for _, stream := range []bool{false, true} {
		name := "chat"
		if stream {
			name = "chat-stream"
		}
		b.Run(name, func(b *testing.B) {
			f := NewFrontend(SystemVaLoRA, simgpu.A100(), lmm.QwenVL7B())
			f.RegisterAdapters("detect", "count")
			rr := newReplayRequest("/v1/chat/completions", string(chatBody(stream)))
			rec := newReuseRecorder()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rr.serve(f, rec)
			}
		})
	}
}

// BenchmarkDecodeOpenAIRequest decodes chatBody's request with the
// handler's fast path and, for comparison, with encoding/json's
// Decoder, the fallback for every body the fast path declines. The
// fallback sub-benchmark is the handler's whole decode of a declined
// body: the scan up to its decline, then encoding/json.
func BenchmarkDecodeOpenAIRequest(b *testing.B) {
	data := chatBody(false)
	b.Run("scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var body openAIRequest
			if !decodeOpenAIRequest(data, &body) {
				b.Fatal("declined")
			}
		}
	})
	// An escaped string after every other field.
	declined := []byte(strings.TrimSuffix(string(data), "}") + `,"stop":"\n"}`)
	b.Run("fallback", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var body openAIRequest
			if decodeOpenAIRequest(declined, &body) {
				b.Fatal("accepted")
			}
			body = openAIRequest{}
			if err := json.NewDecoder(bytes.NewReader(declined)).Decode(&body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var body openAIRequest
			if err := json.NewDecoder(bytes.NewReader(data)).Decode(&body); err != nil {
				b.Fatal(err)
			}
		}
	})
}
