package serving

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"valora/internal/trace"
)

func postJSON(t *testing.T, f *Frontend, path, payload string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	f.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(payload)))
	return rec
}

func TestOpenAIChatCompletion(t *testing.T) {
	f := newTestFrontend(t)
	f.RegisterAdapters("ocr", "detect")
	rec := postJSON(t, f, "/v1/chat/completions",
		`{"model":"detect","messages":[{"role":"user","content":"find the cat"}],"max_tokens":6}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body["object"] != "chat.completion" {
		t.Fatalf("object %v", body["object"])
	}
	choices := body["choices"].([]any)
	msg := choices[0].(map[string]any)["message"].(map[string]any)
	if msg["role"] != "assistant" || len(strings.Fields(msg["content"].(string))) != 6 {
		t.Fatalf("unexpected message %v", msg)
	}
	usage := body["usage"].(map[string]any)
	if usage["completion_tokens"].(float64) != 6 {
		t.Fatalf("usage %v", usage)
	}
	valora := body["valora"].(map[string]any)
	if valora["adapter"].(float64) != 1 {
		t.Fatalf("model name should resolve to adapter 1: %v", valora)
	}
	if valora["ttft_ms"].(float64) <= 0 || valora["e2e_ms"].(float64) < valora["ttft_ms"].(float64) {
		t.Fatalf("degenerate timing %v", valora)
	}
}

func TestOpenAIUnknownModel(t *testing.T) {
	f := newTestFrontend(t)
	rec := postJSON(t, f, "/v1/chat/completions",
		`{"model":"nope","messages":[{"role":"user","content":"hi"}]}`)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown model should 404, got %d: %s", rec.Code, rec.Body)
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if _, ok := body["error"].(map[string]any); !ok {
		t.Fatalf("missing OpenAI error envelope: %s", rec.Body)
	}
}

func TestModelsEndpoint(t *testing.T) {
	f := newTestFrontend(t)
	f.RegisterAdapters("ocr", "detect", "caption")
	rec := httptest.NewRecorder()
	f.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/models", nil))
	var body struct {
		Object string `json:"object"`
		Data   []struct {
			ID     string `json:"id"`
			Object string `json:"object"`
		} `json:"data"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Object != "list" || len(body.Data) != 4 { // base model + 3 adapters
		t.Fatalf("unexpected model list: %s", rec.Body)
	}
	if body.Data[0].ID != "Qwen-VL-7B" || body.Data[2].ID != "detect" {
		t.Fatalf("unexpected model ids: %s", rec.Body)
	}
}

// TestSSEStreamingOrder checks the stream contract on both completion
// endpoints: a role chunk first (chat only), one chunk per token,
// emit_ms non-decreasing along the virtual TTFT/ITL schedule, usage
// and finish_reason on the last chunk only, then [DONE].
func TestSSEStreamingOrder(t *testing.T) {
	const tokens = 9
	for _, c := range []struct {
		path, body, object, idPrefix string
		roleChunks                   int
	}{
		{"/v1/chat/completions", `"messages":[{"role":"user","content":"count"}]`, "chat.completion.chunk", "chatcmpl-", 1},
		{"/v1/completions", `"prompt":"count"`, "text_completion", "cmpl-", 0},
	} {
		t.Run(strings.TrimPrefix(c.path, "/v1/"), func(t *testing.T) {
			f := newTestFrontend(t)
			rec := postJSON(t, f, c.path, fmt.Sprintf(`{%s,"max_tokens":%d,"stream":true}`, c.body, tokens))
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" {
				t.Fatalf("content type %q", ct)
			}
			chunks := readSSE(t, rec.Body)
			if want := c.roleChunks + tokens + 1; len(chunks) != want { // + finish chunk
				t.Fatalf("got %d chunks, want %d", len(chunks), want)
			}
			lastEmit := -1.0
			var text strings.Builder
			for i, ch := range chunks {
				if ch["object"] != c.object || !strings.HasPrefix(ch["id"].(string), c.idPrefix) {
					t.Fatalf("chunk %d: object %v id %v", i, ch["object"], ch["id"])
				}
				emit := ch["valora"].(map[string]any)["emit_ms"].(float64)
				if emit < lastEmit {
					t.Fatalf("chunk %d emitted at %.3fms before predecessor at %.3fms", i, emit, lastEmit)
				}
				lastEmit = emit
				choice := ch["choices"].([]any)[0].(map[string]any)
				if s, ok := choice["text"].(string); ok {
					text.WriteString(s)
				} else if delta, ok := choice["delta"].(map[string]any); ok {
					if s, ok := delta["content"].(string); ok {
						text.WriteString(s)
					}
				}
				_, hasUsage := ch["usage"]
				if last := i == len(chunks)-1; hasUsage != last || last != (choice["finish_reason"] == "stop") {
					t.Fatalf("chunk %d: usage and finish_reason belong on the last chunk only: %v", i, ch)
				}
			}
			if got := len(strings.Fields(text.String())); got != tokens {
				t.Fatalf("streamed %d words, want %d", got, tokens)
			}
		})
	}
}

// promValue extracts one sample value from an exposition body.
func promValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, series+" ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, series+" "), 64)
			if err != nil {
				t.Fatalf("bad sample line %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %s not found in exposition:\n%s", series, body)
	return 0
}

func scrape(t *testing.T, f *Frontend) string {
	t.Helper()
	rec := httptest.NewRecorder()
	f.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("scrape status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("scrape content type %q", ct)
	}
	return rec.Body.String()
}

// expositionLine matches the Prometheus text format: comments or
// name{labels} value.
var expositionLine = regexp.MustCompile(`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+)$`)

// TestMetricsExpositionFormat submits work, scrapes, and validates
// every line against the exposition grammar plus histogram
// consistency (cumulative buckets, +Inf == count).
func TestMetricsExpositionFormat(t *testing.T) {
	f := newTestFrontend(t)
	for i := 0; i < 3; i++ {
		rec := postJSON(t, f, "/v1/chat/completions", `{"adapter_id":0,"input_tokens":300,"output_tokens":16}`)
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	body := scrape(t, f)
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if !expositionLine.MatchString(line) {
			t.Fatalf("invalid exposition line %q", line)
		}
	}
	if got := promValue(t, body, `valora_requests_total{system="VaLoRA"}`); got != 3 {
		t.Fatalf("requests_total %v, want 3", got)
	}
	if got := promValue(t, body, `valora_e2e_ms_count{system="VaLoRA"}`); got != 3 {
		t.Fatalf("e2e histogram count %v, want 3", got)
	}
	// Histogram buckets must be cumulative and end at the count.
	var prev float64
	bucket := regexp.MustCompile(`^valora_e2e_ms_bucket\{system="VaLoRA",le="([^"]+)"\} (\d+)$`)
	buckets := 0
	for _, line := range strings.Split(body, "\n") {
		m := bucket.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		buckets++
		v, _ := strconv.ParseFloat(m[2], 64)
		if v < prev {
			t.Fatalf("bucket %s not cumulative: %v < %v", m[1], v, prev)
		}
		prev = v
		if m[1] == "+Inf" && v != 3 {
			t.Fatalf("+Inf bucket %v, want 3", v)
		}
	}
	if buckets == 0 {
		t.Fatal("no histogram buckets in exposition")
	}
}

// TestMetricsMonotonicAcrossRecycle is the recycling-counter fix's
// regression test: with a tiny live-engine cap, counters must keep
// rising across engine retirements instead of resetting.
func TestMetricsMonotonicAcrossRecycle(t *testing.T) {
	f := newTestFrontend(t)
	f.liveCap = 2
	var lastReq, lastSwapIns float64
	for i := 0; i < 7; i++ {
		rec := postJSON(t, f, "/v1/chat/completions",
			fmt.Sprintf(`{"adapter_id":%d,"input_tokens":300,"output_tokens":8}`, i%3))
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, rec.Code, rec.Body)
		}
		body := scrape(t, f)
		req := promValue(t, body, `valora_requests_total{system="VaLoRA"}`)
		swap := promValue(t, body, `valora_adapter_swap_ins_total{system="VaLoRA"}`)
		if req < lastReq || swap < lastSwapIns {
			t.Fatalf("after request %d: counters went backwards (requests %v->%v, swap-ins %v->%v)",
				i, lastReq, req, lastSwapIns, swap)
		}
		lastReq, lastSwapIns = req, swap
	}
	if lastReq != 7 {
		t.Fatalf("requests_total %v, want 7 across recycles", lastReq)
	}
	body := scrape(t, f)
	if rec := promValue(t, body, `valora_engine_recycles_total{system="VaLoRA"}`); rec < 3 {
		t.Fatalf("engine_recycles_total %v, want >= 3 with cap 2", rec)
	}
	if swap := promValue(t, body, `valora_adapter_swap_ins_total{system="VaLoRA"}`); swap < 3 {
		t.Fatalf("swap-in totals lost at recycle: %v", swap)
	}
}

// TestConcurrentScrapeVsSubmit races submissions against scrapes (the
// CI -race run makes this the frontend's thread-safety proof).
func TestConcurrentScrapeVsSubmit(t *testing.T) {
	f := newTestFrontend(t)
	f.liveCap = 5 // recycle under load too
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				rec := postJSON(t, f, "/v1/chat/completions",
					fmt.Sprintf(`{"adapter_id":%d,"messages":[{"role":"user","content":"go"}],"max_tokens":4}`, (w+i)%3))
				if rec.Code != http.StatusOK {
					t.Errorf("worker %d request %d: %d %s", w, i, rec.Code, rec.Body)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			scrape(t, f)
		}
	}()
	wg.Wait()
	if got := promValue(t, scrape(t, f), `valora_requests_total{system="VaLoRA"}`); got != 32 {
		t.Fatalf("requests_total %v, want 32", got)
	}
}

// TestFrontendTraceCapture checks the serve path feeds the trace
// recorder and /v1/trace serves the capture.
func TestFrontendTraceCapture(t *testing.T) {
	f := newTestFrontend(t)

	// Without a recorder the endpoint 404s.
	rec := httptest.NewRecorder()
	f.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/trace", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("trace without recorder should 404, got %d", rec.Code)
	}

	tr := trace.NewRecorder()
	f.SetTraceRecorder(tr)
	f.liveCap = 2 // capture must survive recycling too
	for i := 0; i < 5; i++ {
		if rec := postJSON(t, f, "/v1/chat/completions", `{"input_tokens":300,"output_tokens":8}`); rec.Code != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	rec = httptest.NewRecorder()
	f.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/trace", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("trace status %d", rec.Code)
	}
	rows, err := trace.ReadJSONL(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("captured %d rows, want 5", len(rows))
	}
	for _, r := range rows {
		if r.System != "VaLoRA" || r.OutputTokens != 8 || r.Finish <= r.FirstToken {
			t.Fatalf("bad trace row %+v", r)
		}
	}
}
