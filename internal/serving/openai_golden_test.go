package serving

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"

	"valora/internal/lmm"
)

// wireGoldenFile pins the decoded JSON of every response shape of the
// OpenAI surface. Values are compared decoded, not as bytes: key
// order, whitespace and escaping are free to change, the values are
// not. Regenerate with -update-wire-golden and record why in the
// change log.
const wireGoldenFile = "testdata/openai_wire_golden.json"

var updateWireGolden = flag.Bool("update-wire-golden", false, "rewrite "+wireGoldenFile+" from the current frontend")

// wireResponse is one pinned response: its status and content type,
// then either the decoded body or, for an SSE stream, the decoded
// data: events in order with the final "[DONE]" kept as a string.
type wireResponse struct {
	Name        string `json:"name"`
	Status      int    `json:"status"`
	ContentType string `json:"content_type"`
	Body        any    `json:"body,omitempty"`
	Events      []any  `json:"events,omitempty"`
}

// wireCase is one request of the golden sequence. Cases run in order
// on one frontend, so request IDs and the virtual clock carry across
// them: a case that should not consume an ID is pinned by the next
// successful response's id.
type wireCase struct {
	name, method, path, body string
}

// oddModel is a registered adapter name that needs JSON escaping:
// HTML-significant characters, a quote, a backslash, a control
// character and non-ASCII text.
const oddModel = "odd <b>&\"\\\tcafé"

func wireCases() []wireCase {
	maxImages := maxInputTokens / lmm.QwenVL7B().VisualTokens
	chat, cmpl := "/v1/chat/completions", "/v1/completions"
	post := func(name, path, body string) wireCase { return wireCase{name, http.MethodPost, path, body} }
	oddJSON, _ := json.Marshal(oddModel)
	return []wireCase{
		post("chat/string/1-token", chat, `{"messages":[{"role":"user","content":"find the cat"}],"max_tokens":1}`),
		post("chat/string/5-tokens", chat, `{"model":"detect","messages":[{"role":"system","content":"be brief"},{"role":"user","content":"count the forklifts"}],"max_tokens":5}`),
		post("chat/parts/image", chat, `{"model":"count","messages":[{"role":"user","content":[{"type":"text","text":"how many?"},{"type":"image_url","image_url":{"url":"data:image/png;base64,AAAA"}},{"type":"image_url","image_url":{"url":"x"}}]}],"max_completion_tokens":3}`),
		post("chat/parts/lenient", chat, `{"messages":[{"role":"user","content":[{"type":"text","text":7},{"type":"text"},"bare",3,null,{"type":"audio","text":"ignored"},{"text":"untyped"},{"type":"text","text":"kept"}]},{"role":"user","content":{"type":"text","text":"object content"}},{"role":"user","content":42}],"max_tokens":2}`),
		post("chat/stream/1-token", chat, `{"messages":[{"role":"user","content":"x"}],"stream":true,"max_tokens":1}`),
		post("chat/stream/6-tokens/parts", chat, `{"model":"detect","messages":[{"role":"user","content":[{"type":"image_url","image_url":{"url":"u"}},{"type":"text","text":"track it"}]}],"stream":true,"max_tokens":6}`),
		post("chat/odd-model", chat, `{"model":`+string(oddJSON)+`,"messages":[{"role":"user","content":"escé \"q\""}],"max_tokens":2}`),
		post("chat/stream/odd-model", chat, `{"model":`+string(oddJSON)+`,"messages":[{"role":"user","content":"x"}],"stream":true,"max_tokens":2}`),
		post("chat/extensions", chat, `{"adapter_id":1,"input_tokens":400,"output_tokens":7,"images":1,"deadline_ms":5000,"user":"tenant-a"}`),
		post("chat/system-override", chat, `{"adapter_id":1,"system":"S-LoRA","max_tokens":3}`),
		post("chat/defaults", chat, `{}`),
		post("completions/string/1-token", cmpl, `{"prompt":"twelve chars","max_tokens":1}`),
		post("completions/array/3-tokens", cmpl, `{"model":"count","prompt":["eight ch","rs again"],"max_tokens":3}`),
		post("completions/array/lenient", cmpl, `{"prompt":["abcd",5,null,["nested"],"efgh"],"max_tokens":2}`),
		post("completions/stream/1-token", cmpl, `{"prompt":"x","stream":true,"max_tokens":1}`),
		post("completions/stream/4-tokens/array", cmpl, `{"prompt":["count","these"],"stream":true,"max_tokens":4}`),
		{"error/405/chat", http.MethodGet, chat, ""},
		{"error/405/completions", http.MethodGet, cmpl, ""},
		post("error/400/bad-json", chat, `{`),
		post("error/400/bad-type", chat, `{"max_tokens":"5"}`),
		post("error/400/system", chat, `{"system":"bogus"}`),
		post("error/400/negative-deadline", chat, `{"deadline_ms":-1}`),
		post("error/400/deadline-past-range", cmpl, `{"deadline_ms":1e300}`),
		post("error/400/negative-adapter", chat, `{"adapter_id":-7}`),
		post("error/400/images-past-cap", chat, fmt.Sprintf(`{"input_tokens":300,"output_tokens":4,"images":%d}`, maxImages+1)),
		post("error/400/input-past-cap", cmpl, fmt.Sprintf(`{"input_tokens":%d}`, maxInputTokens+1)),
		post("error/400/output-past-cap", chat, fmt.Sprintf(`{"output_tokens":%d}`, maxOutputTokens+1)),
		post("error/404/unknown-model", chat, `{"model":"nope <&>","messages":[{"role":"user","content":"x"}]}`),
		post("error/404/unknown-model-before-images", chat, fmt.Sprintf(`{"model":"nope","images":%d}`, maxImages+1)),
		post("error/404/unregistered-adapter", cmpl, `{"adapter_id":3,"input_tokens":8,"output_tokens":1}`),
		post("error/413", cmpl, `{"prompt":"`+strings.Repeat("a", maxBodyBytes)+`"}`),
		post("after-errors", chat, `{"messages":[{"role":"user","content":"still counting"}],"max_tokens":2}`),
		post("error/422/kv", chat, fmt.Sprintf(`{"input_tokens":%d,"output_tokens":1}`, maxInputTokens)),
		post("after-422", cmpl, `{"prompt":"next","max_tokens":1}`),
		{"models", http.MethodGet, "/v1/models", ""},
	}
}

// captureWire serves one case and decodes its response.
func captureWire(t *testing.T, f *Frontend, c wireCase) wireResponse {
	t.Helper()
	rec := httptest.NewRecorder()
	f.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, strings.NewReader(c.body)))
	out := wireResponse{Name: c.name, Status: rec.Code, ContentType: rec.Header().Get("Content-Type")}
	if out.ContentType != "text/event-stream" {
		if err := json.Unmarshal(rec.Body.Bytes(), &out.Body); err != nil {
			t.Fatalf("%s: body is not JSON: %v: %q", c.name, err, rec.Body)
		}
		return out
	}
	if cc := rec.Header().Get("Cache-Control"); cc != "no-cache" {
		t.Fatalf("%s: stream Cache-Control %q, want no-cache", c.name, cc)
	}
	out.Events = decodeSSEEvents(t, c.name, rec.Body.Bytes())
	return out
}

// decodeSSEEvents splits an SSE body into its data: events. Every
// event is exactly one "data: " line followed by a blank line; the
// last is [DONE] and no event follows it.
func decodeSSEEvents(t *testing.T, name string, body []byte) []any {
	t.Helper()
	if !bytes.HasSuffix(body, []byte("\n\n")) {
		t.Fatalf("%s: stream does not end with a blank line: %q", name, body)
	}
	var events []any
	for _, ev := range strings.Split(strings.TrimSuffix(string(body), "\n\n"), "\n\n") {
		payload, ok := strings.CutPrefix(ev, "data: ")
		if !ok || strings.Contains(payload, "\n") {
			t.Fatalf("%s: malformed SSE event %q", name, ev)
		}
		if len(events) > 0 && events[len(events)-1] == "[DONE]" {
			t.Fatalf("%s: event after [DONE]: %q", name, ev)
		}
		if payload == "[DONE]" {
			events = append(events, payload)
			continue
		}
		var v any
		if err := json.Unmarshal([]byte(payload), &v); err != nil {
			t.Fatalf("%s: bad chunk %q: %v", name, payload, err)
		}
		events = append(events, v)
	}
	if len(events) == 0 || events[len(events)-1] != "[DONE]" {
		t.Fatalf("%s: stream does not end with data: [DONE]", name)
	}
	return events
}

// captureAllWire runs the golden sequence: the registered frontend's
// cases, then the synthesized-adapter limit on an unregistered one
// (1,024 distinct adapter_ids served, the next refused).
func captureAllWire(t *testing.T) []wireResponse {
	f := newTestFrontend(t)
	f.RegisterAdapters("detect", "count", oddModel)
	var got []wireResponse
	for _, c := range wireCases() {
		got = append(got, captureWire(t, f, c))
	}
	u := newTestFrontend(t)
	for id := 0; id < maxSynthAdapters; id++ {
		if rec := postJSON(t, u, "/v1/completions", fmt.Sprintf(`{"adapter_id":%d,"input_tokens":8,"output_tokens":1}`, id)); rec.Code != http.StatusOK {
			t.Fatalf("adapter %d: status %d: %s", id, rec.Code, rec.Body)
		}
	}
	got = append(got,
		captureWire(t, u, wireCase{"error/400/synth-adapter-limit", http.MethodPost, "/v1/chat/completions",
			fmt.Sprintf(`{"adapter_id":%d,"input_tokens":8,"output_tokens":1}`, maxSynthAdapters)}),
		captureWire(t, u, wireCase{"synth/known-adapter", http.MethodPost, "/v1/chat/completions",
			`{"adapter_id":5,"input_tokens":8,"output_tokens":2,"stream":true}`}))
	return got
}

// TestOpenAIWireGolden holds every response shape of the OpenAI
// surface to its pinned decoded value: chat and completions, streamed
// and not, one and several tokens, string and typed-part content,
// string and array prompts, every error status and /v1/models.
func TestOpenAIWireGolden(t *testing.T) {
	got := captureAllWire(t)
	if *updateWireGolden {
		out, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(wireGoldenFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(wireGoldenFile)
	if err != nil {
		t.Fatalf("%v (generate with -update-wire-golden)", err)
	}
	var want []wireResponse
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	// Round-trip the capture so both sides hold the same decoded types.
	rt, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	got = nil
	if err := json.Unmarshal(rt, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("captured %d responses, golden file has %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			g, _ := json.Marshal(got[i])
			w, _ := json.Marshal(want[i])
			t.Errorf("%s: decoded response changed\n got: %s\nwant: %s", want[i].Name, g, w)
		}
	}
}
