package serving

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"valora/internal/lmm"
	"valora/internal/simgpu"
)

func newTestFrontend(t *testing.T) *Frontend {
	t.Helper()
	return NewFrontend(SystemVaLoRA, simgpu.A100(), lmm.QwenVL7B())
}

// decodeJSON unmarshals a JSON response body.
func decodeJSON(t *testing.T, rec *httptest.ResponseRecorder) map[string]any {
	t.Helper()
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("bad JSON body %q: %v", rec.Body, err)
	}
	return body
}

// expectOpenAIError checks the status and the OpenAI error envelope.
func expectOpenAIError(t *testing.T, rec *httptest.ResponseRecorder, status int) {
	t.Helper()
	if rec.Code != status {
		t.Fatalf("status %d, want %d: %s", rec.Code, status, rec.Body)
	}
	env, ok := decodeJSON(t, rec)["error"].(map[string]any)
	if !ok || env["type"] != "invalid_request_error" || env["code"].(float64) != float64(status) {
		t.Fatalf("missing OpenAI error envelope: %s", rec.Body)
	}
}

// readSSE parses an SSE body into its JSON chunks, requiring every
// line to be a data line and the stream to end with [DONE].
func readSSE(t *testing.T, r io.Reader) []map[string]any {
	t.Helper()
	var chunks []map[string]any
	doneSeen := false
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, "data: ") {
			t.Fatalf("non-SSE line %q", line)
		}
		payload := strings.TrimPrefix(line, "data: ")
		if payload == "[DONE]" {
			doneSeen = true
			continue
		}
		if doneSeen {
			t.Fatal("chunk after [DONE]")
		}
		var c map[string]any
		if err := json.Unmarshal([]byte(payload), &c); err != nil {
			t.Fatalf("bad chunk %q: %v", payload, err)
		}
		chunks = append(chunks, c)
	}
	if !doneSeen {
		t.Fatal("missing [DONE] sentinel")
	}
	return chunks
}

// TestFrontendRoutes pins the mux to the OpenAI surface plus metrics,
// trace and liveness: /v1/model, /v1/requests and /v1/replay are not
// routes.
func TestFrontendRoutes(t *testing.T) {
	f := newTestFrontend(t)
	for _, path := range []string{"/v1/model", "/v1/requests", "/v1/replay"} {
		rec := postJSON(t, f, path, `{}`)
		if rec.Code != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404", path, rec.Code)
		}
	}
	for _, path := range []string{"/v1/models", "/metrics", "/healthz"} {
		rec := httptest.NewRecorder()
		f.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, rec.Code)
		}
	}
}

// TestFrontendRequestEndpoint serves one request shaped entirely by
// the simulator extensions.
func TestFrontendRequestEndpoint(t *testing.T) {
	f := newTestFrontend(t)
	rec := postJSON(t, f, "/v1/chat/completions",
		`{"adapter_id": 1, "input_tokens": 400, "output_tokens": 32, "images": 1}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	body := decodeJSON(t, rec)
	usage := body["usage"].(map[string]any)
	if usage["prompt_tokens"].(float64) != 400 || usage["completion_tokens"].(float64) != 32 {
		t.Fatalf("extensions ignored: usage %v", usage)
	}
	v := body["valora"].(map[string]any)
	if v["adapter"].(float64) != 1 {
		t.Fatalf("adapter_id ignored: %v", v)
	}
	if v["e2e_ms"].(float64) <= 0 || v["ttft_ms"].(float64) <= 0 {
		t.Fatalf("degenerate timing %v", v)
	}
	if v["ttft_ms"].(float64) > v["e2e_ms"].(float64) {
		t.Fatal("TTFT cannot exceed end-to-end latency")
	}
}

func TestFrontendRequestDefaultsAndErrors(t *testing.T) {
	f := newTestFrontend(t)
	// Defaults fill an empty body: base model, one prompt token, 64
	// generated tokens.
	rec := postJSON(t, f, "/v1/chat/completions", `{}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	usage := decodeJSON(t, rec)["usage"].(map[string]any)
	if usage["prompt_tokens"].(float64) != 1 || usage["completion_tokens"].(float64) != 64 {
		t.Fatalf("defaults not applied: usage %v", usage)
	}
	// Bad JSON.
	expectOpenAIError(t, postJSON(t, f, "/v1/chat/completions", `{`), http.StatusBadRequest)
	// Wrong method.
	rec = httptest.NewRecorder()
	f.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/chat/completions", nil))
	expectOpenAIError(t, rec, http.StatusMethodNotAllowed)
}

// TestOpenAIFieldBounds rejects out-of-range extension fields on both
// completion endpoints with 400 in the OpenAI envelope, and still
// serves an in-range request.
func TestOpenAIFieldBounds(t *testing.T) {
	maxImages := maxInputTokens / lmm.QwenVL7B().VisualTokens
	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"in range", `{"adapter_id":3,"input_tokens":300,"output_tokens":4,"images":2,"deadline_ms":5000}`, http.StatusOK},
		{"images at cap", fmt.Sprintf(`{"input_tokens":300,"output_tokens":4,"images":%d}`, maxImages), http.StatusOK},
		{"images past cap", fmt.Sprintf(`{"input_tokens":300,"output_tokens":4,"images":%d}`, maxImages+1), http.StatusBadRequest},
		{"images overflowing the encoder", `{"input_tokens":300,"output_tokens":4,"images":1000000000000000}`, http.StatusBadRequest},
		{"negative adapter", `{"adapter_id":-7}`, http.StatusBadRequest},
		{"negative deadline", `{"deadline_ms":-1}`, http.StatusBadRequest},
		{"deadline past Duration range", `{"deadline_ms":1e300}`, http.StatusBadRequest},
		{"input tokens past cap", fmt.Sprintf(`{"input_tokens":%d}`, maxInputTokens+1), http.StatusBadRequest},
		{"output tokens past cap", fmt.Sprintf(`{"output_tokens":%d}`, maxOutputTokens+1), http.StatusBadRequest},
	}
	for _, path := range []string{"/v1/chat/completions", "/v1/completions"} {
		f := newTestFrontend(t)
		for _, c := range cases {
			t.Run(strings.TrimPrefix(path, "/v1/")+"/"+c.name, func(t *testing.T) {
				rec := postJSON(t, f, path, c.body)
				if c.status != http.StatusOK {
					expectOpenAIError(t, rec, c.status)
				} else if rec.Code != http.StatusOK {
					t.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			})
		}
	}
}

// TestOpenAIBodyLimit answers a body past the limit with 413 before
// decoding it.
func TestOpenAIBodyLimit(t *testing.T) {
	f := newTestFrontend(t)
	body := `{"prompt":"` + strings.Repeat("a", maxBodyBytes) + `"}`
	for _, path := range []string{"/v1/chat/completions", "/v1/completions"} {
		expectOpenAIError(t, postJSON(t, f, path, body), http.StatusRequestEntityTooLarge)
	}
}

// TestOpenAIBodyLimitAfterValue reads the whole body before decoding
// it: a body past the limit is a 413 even when its first JSON value
// ends early, and a body at the limit is served with its tail after
// that value ignored.
func TestOpenAIBodyLimitAfterValue(t *testing.T) {
	f := newTestFrontend(t)
	value := `{"prompt":"x","max_tokens":1}`
	atLimit := value + strings.Repeat(" ", maxBodyBytes-len(value))
	if rec := postJSON(t, f, "/v1/completions", atLimit); rec.Code != http.StatusOK {
		t.Fatalf("body at the limit: status %d: %s", rec.Code, rec.Body)
	}
	expectOpenAIError(t, postJSON(t, f, "/v1/completions", atLimit+" "), http.StatusRequestEntityTooLarge)
}

// TestCompletionsEndpoint covers the non-streamed legacy completions
// shape: string and []string prompts, the text_completion object and
// cmpl- IDs.
func TestCompletionsEndpoint(t *testing.T) {
	f := newTestFrontend(t)
	for _, c := range []struct {
		prompt       string
		promptTokens float64
	}{
		{`"twelve chars"`, 3},          // (12+3)/4
		{`["eight ch","rs again"]`, 4}, // (16+3)/4
	} {
		rec := postJSON(t, f, "/v1/completions", fmt.Sprintf(`{"prompt":%s,"max_tokens":5}`, c.prompt))
		if rec.Code != http.StatusOK {
			t.Fatalf("prompt %s: status %d: %s", c.prompt, rec.Code, rec.Body)
		}
		body := decodeJSON(t, rec)
		if body["object"] != "text_completion" || !strings.HasPrefix(body["id"].(string), "cmpl-") {
			t.Fatalf("prompt %s: not a text completion: %v", c.prompt, body)
		}
		choice := body["choices"].([]any)[0].(map[string]any)
		if len(strings.Fields(choice["text"].(string))) != 5 || choice["finish_reason"] != "stop" {
			t.Fatalf("prompt %s: unexpected choice %v", c.prompt, choice)
		}
		if got := body["usage"].(map[string]any)["prompt_tokens"].(float64); got != c.promptTokens {
			t.Fatalf("prompt %s: prompt_tokens %v, want %v", c.prompt, got, c.promptTokens)
		}
	}
}

// TestFrontendConcurrentRequests hammers the shared engine from many
// goroutines; with -race it proves the sequence counter and engine
// state are properly synchronized.
func TestFrontendConcurrentRequests(t *testing.T) {
	f := newTestFrontend(t)
	const n = 12
	var wg sync.WaitGroup
	var mu sync.Mutex
	ids := make(map[string]bool)
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := postJSON(t, f, "/v1/chat/completions",
				`{"adapter_id": 1, "input_tokens": 200, "output_tokens": 8}`)
			if rec.Code != http.StatusOK {
				errs <- fmt.Errorf("request status %d: %s", rec.Code, rec.Body)
				return
			}
			var body struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				errs <- err
				return
			}
			mu.Lock()
			ids[body.ID] = true
			mu.Unlock()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if len(ids) != n {
		t.Fatalf("got %d distinct request IDs from %d requests", len(ids), n)
	}
}

// TestFrontendPersistentEngine checks that consecutive requests land
// on the same live engine: virtual time moves forward and request IDs
// keep increasing.
func TestFrontendPersistentEngine(t *testing.T) {
	f := newTestFrontend(t)
	var lastNow float64
	lastID := 0
	for i := 0; i < 3; i++ {
		rec := postJSON(t, f, "/v1/chat/completions",
			`{"adapter_id": 2, "input_tokens": 300, "output_tokens": 8}`)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		body := decodeJSON(t, rec)
		now := body["valora"].(map[string]any)["virtual_now_ms"].(float64)
		id, err := strconv.Atoi(strings.TrimPrefix(body["id"].(string), "chatcmpl-"))
		if err != nil {
			t.Fatalf("bad completion id %v", body["id"])
		}
		if now <= lastNow || id <= lastID {
			t.Fatalf("engine not persistent: now %v after %v, id %v after %v", now, lastNow, id, lastID)
		}
		lastNow, lastID = now, id
	}
}

// TestFrontendSystemOverride routes a request to a non-default system
// via the body's "system" field.
func TestFrontendSystemOverride(t *testing.T) {
	f := newTestFrontend(t)
	rec := postJSON(t, f, "/v1/chat/completions", `{"adapter_id": 1, "system": "S-LoRA"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if sys := decodeJSON(t, rec)["valora"].(map[string]any)["system"]; sys != "S-LoRA" {
		t.Fatalf("system override ignored: %v", sys)
	}
	expectOpenAIError(t, postJSON(t, f, "/v1/chat/completions", `{"system": "bogus"}`), http.StatusBadRequest)
}

func TestFrontendHealthz(t *testing.T) {
	f := newTestFrontend(t)
	rec := httptest.NewRecorder()
	f.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("healthz failed: %d %s", rec.Code, rec.Body)
	}
}

// TestFrontendAdapterTableBounded cycles 10k distinct adapter_ids
// through one unregistered frontend: the first maxSynthAdapters are
// served, the rest are refused with 400, the engine's adapter table
// never grows past the bound, and known IDs keep being served.
func TestFrontendAdapterTableBounded(t *testing.T) {
	f := newTestFrontend(t)
	for id := 0; id < 10000; id++ {
		rec := postJSON(t, f, "/v1/completions",
			fmt.Sprintf(`{"adapter_id":%d,"input_tokens":8,"output_tokens":1}`, id))
		if id < maxSynthAdapters {
			if rec.Code != http.StatusOK {
				t.Fatalf("adapter %d: status %d: %s", id, rec.Code, rec.Body)
			}
			continue
		}
		expectOpenAIError(t, rec, http.StatusBadRequest)
	}
	f.mu.Lock()
	srv := f.engines[0].srv
	f.mu.Unlock()
	if n := srv.slotCount(); n != maxSynthAdapters {
		t.Fatalf("adapter table holds %d slots, want the bound %d", n, maxSynthAdapters)
	}
	if rec := postJSON(t, f, "/v1/completions", `{"adapter_id":7,"input_tokens":8,"output_tokens":1}`); rec.Code != http.StatusOK {
		t.Fatalf("a known adapter must still be served: status %d: %s", rec.Code, rec.Body)
	}
}

// TestFrontendRejectsUnregisteredAdapter: with adapters registered,
// adapter_id must name one of them.
func TestFrontendRejectsUnregisteredAdapter(t *testing.T) {
	f := newTestFrontend(t)
	f.RegisterAdapters("detect", "count")
	if rec := postJSON(t, f, "/v1/chat/completions", `{"adapter_id":1,"input_tokens":8,"output_tokens":1}`); rec.Code != http.StatusOK {
		t.Fatalf("registered adapter: status %d: %s", rec.Code, rec.Body)
	}
	for _, id := range []int{2, 1 << 40} {
		expectOpenAIError(t, postJSON(t, f, "/v1/chat/completions",
			fmt.Sprintf(`{"adapter_id":%d,"input_tokens":8,"output_tokens":1}`, id)), http.StatusNotFound)
	}
}
