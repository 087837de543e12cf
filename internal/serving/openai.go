package serving

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"time"

	"valora/internal/sched"
	"valora/internal/train"
)

// OpenAI-compatible surface: /v1/chat/completions, /v1/completions
// (both with stream=true SSE) and /v1/models, making the simulator a
// drop-in test double for a vLLM-style endpoint (the API shape of
// llm-d's vLLM simulator). Timing is virtual: the engine steps the
// request to completion in simulated time and the response (or each
// SSE chunk) reports when it would have been produced, rather than
// wall-sleeping through the schedule — a client sees the whole
// virtual TTFT/ITL timetable immediately, deterministically.

// openAIRequest is the accepted body of both completion endpoints.
// Standard OpenAI fields plus simulator extensions (adapter_id,
// input_tokens, output_tokens, images, system, deadline_ms) for
// precise workload control; the extensions win over the heuristics
// when set.
type openAIRequest struct {
	Model    string          `json:"model"`
	Messages []openAIMessage `json:"messages"` // chat endpoint
	Prompt   any             `json:"prompt"`   // completions endpoint: string or []string

	MaxTokens           int    `json:"max_tokens"`
	MaxCompletionTokens int    `json:"max_completion_tokens"`
	Stream              bool   `json:"stream"`
	User                string `json:"user"` // tenant label

	AdapterID    *int    `json:"adapter_id"`
	InputTokens  int     `json:"input_tokens"`
	OutputTokens int     `json:"output_tokens"`
	Images       int     `json:"images"`
	System       string  `json:"system"`
	DeadlineMS   float64 `json:"deadline_ms"`
}

// maxBodyBytes bounds a completion request body. A prompt at
// maxInputTokens is about 4 MiB at the frontend's ~4 characters per
// text token, so 8 MiB admits every servable prompt with headroom.
const maxBodyBytes = 8 << 20

// maxDeadlineMS is the largest deadline_ms whose nanosecond value fits
// in a time.Duration.
const maxDeadlineMS = float64(math.MaxInt64 / int64(time.Millisecond))

// openAIMessage is one chat message; Content is a string or an array
// of typed parts (text / image_url), as in the vision API.
type openAIMessage struct {
	Role    string `json:"role"`
	Content any    `json:"content"`
}

// openAIError writes the OpenAI error envelope.
func openAIError(w http.ResponseWriter, status int, kind, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"error": map[string]any{
			"message": msg,
			"type":    kind,
			"code":    status,
		},
	})
}

// promptShape extracts the text length and image count of the request
// body: chat messages (string content or typed parts) or the legacy
// prompt field (string or array of strings).
func promptShape(body *openAIRequest) (textLen, images int) {
	for _, m := range body.Messages {
		switch c := m.Content.(type) {
		case string:
			textLen += len(c)
		case []any:
			for _, part := range c {
				p, ok := part.(map[string]any)
				if !ok {
					continue
				}
				switch p["type"] {
				case "image_url":
					images++
				case "text":
					if s, ok := p["text"].(string); ok {
						textLen += len(s)
					}
				}
			}
		}
	}
	switch p := body.Prompt.(type) {
	case string:
		textLen += len(p)
	case []any:
		for _, e := range p {
			if s, ok := e.(string); ok {
				textLen += len(s)
			}
		}
	}
	return textLen, images
}

// fillerWords cycles to synthesize deterministic completion text, one
// word per generated token.
var fillerWords = []string{
	"the", "adapter", "serves", "a", "vision", "request", "through",
	"merged", "weights", "while", "tokens", "stream", "from", "virtual",
	"time",
}

// tokenWord is the i-th word of the deterministic completion.
func tokenWord(i int) string { return fillerWords[i%len(fillerWords)] }

// completionText synthesizes n tokens of deterministic text.
func completionText(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(tokenWord(i))
	}
	return b.String()
}

// buildOpenAIRequest validates the body and produces the simulated
// request plus its target system. A nil request means an error was
// already written.
func (f *Frontend) buildOpenAIRequest(w http.ResponseWriter, body *openAIRequest) (*sched.Request, SystemKind, bool) {
	invalid := func(format string, args ...any) (*sched.Request, SystemKind, bool) {
		openAIError(w, http.StatusBadRequest, "invalid_request_error", fmt.Sprintf(format, args...))
		return nil, "", false
	}
	kind, err := f.systemOf(body.System)
	if err != nil {
		return invalid("%v", err)
	}
	if body.DeadlineMS < 0 || body.DeadlineMS > maxDeadlineMS {
		return invalid("deadline_ms must be in [0, %.0f]", maxDeadlineMS)
	}
	adapter := 0
	if body.AdapterID != nil {
		if *body.AdapterID < 0 {
			return invalid("adapter_id must not be negative")
		}
		adapter = *body.AdapterID
		if n := f.registeredAdapters(); n > 0 && adapter >= n {
			openAIError(w, http.StatusNotFound, "invalid_request_error",
				fmt.Sprintf("adapter_id %d is not registered (%d adapters, see /v1/models)", adapter, n))
			return nil, "", false
		}
	} else {
		id, ok := f.adapterByModel(body.Model)
		if !ok {
			openAIError(w, http.StatusNotFound, "invalid_request_error",
				fmt.Sprintf("model %q not found (see /v1/models)", body.Model))
			return nil, "", false
		}
		adapter = id
	}

	textLen, images := promptShape(body)
	if body.Images > 0 {
		images = body.Images
	}
	// Each image adds VisualTokens to the prompt, so more images than
	// fit in maxInputTokens can never be served.
	if maxImages := maxInputTokens / f.Model.VisualTokens; images > maxImages {
		return invalid("images exceeds the per-request maximum (%d)", maxImages)
	}
	in := body.InputTokens
	if in <= 0 {
		// ~4 chars per text token plus the visual tokens each image
		// contributes after the encoder.
		in = (textLen+3)/4 + images*f.Model.VisualTokens
		if in <= 0 {
			in = 1
		}
	}
	out := body.OutputTokens
	if out <= 0 {
		out = body.MaxCompletionTokens
	}
	if out <= 0 {
		out = body.MaxTokens
	}
	if out <= 0 {
		out = 64
	}
	if in > maxInputTokens || out > maxOutputTokens {
		return invalid("token counts exceed the per-request maximum (%d in, %d out)", maxInputTokens, maxOutputTokens)
	}
	return &sched.Request{
		ID:           f.nextID(),
		AdapterID:    adapter,
		App:          sched.VisualRetrieval,
		Task:         train.VisualQA,
		Head:         train.LMHead,
		InputTokens:  in,
		OutputTokens: out,
		Images:       images,
		Tenant:       body.User,
		Deadline:     time.Duration(body.DeadlineMS * float64(time.Millisecond)),
	}, kind, true
}

// valoraExtension is the simulator's timing sidecar attached to every
// OpenAI response.
func valoraExtension(kind SystemKind, req *sched.Request, now time.Duration) map[string]any {
	return map[string]any{
		"system":         string(kind),
		"adapter":        req.AdapterID,
		"ttft_ms":        float64(req.FirstToken-req.Arrival) / float64(time.Millisecond),
		"e2e_ms":         float64(req.Latency()) / float64(time.Millisecond),
		"queue_wait_ms":  float64(req.FirstSchedule-req.Arrival) / float64(time.Millisecond),
		"cold_start":     req.ColdStart,
		"preemptions":    req.PreemptCount,
		"virtual_now_ms": float64(now) / float64(time.Millisecond),
	}
}

func (f *Frontend) handleChatCompletions(w http.ResponseWriter, r *http.Request) {
	f.handleOpenAI(w, r, true)
}

func (f *Frontend) handleCompletions(w http.ResponseWriter, r *http.Request) {
	f.handleOpenAI(w, r, false)
}

func (f *Frontend) handleOpenAI(w http.ResponseWriter, r *http.Request, chat bool) {
	if r.Method != http.MethodPost {
		openAIError(w, http.StatusMethodNotAllowed, "invalid_request_error", "POST required")
		return
	}
	var body openAIRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&body); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			openAIError(w, http.StatusRequestEntityTooLarge, "invalid_request_error",
				fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes))
			return
		}
		openAIError(w, http.StatusBadRequest, "invalid_request_error", fmt.Sprintf("bad request: %v", err))
		return
	}
	req, kind, ok := f.buildOpenAIRequest(w, &body)
	if !ok {
		return
	}
	now, status, err := f.runLive(kind, req)
	if err != nil {
		kindStr := "invalid_request_error"
		if status >= 500 {
			kindStr = "server_error"
		}
		openAIError(w, status, kindStr, err.Error())
		return
	}
	model := body.Model
	if model == "" {
		model = f.Model.Name
	}
	if body.Stream {
		f.streamOpenAI(w, chat, model, kind, req, now)
		return
	}

	created := int64(now / time.Second) // virtual seconds, deterministic
	usage := map[string]any{
		"prompt_tokens":     req.InputTokens,
		"completion_tokens": req.OutputTokens,
		"total_tokens":      req.InputTokens + req.OutputTokens,
	}
	var resp map[string]any
	if chat {
		resp = map[string]any{
			"id":      fmt.Sprintf("chatcmpl-%d", req.ID),
			"object":  "chat.completion",
			"created": created,
			"model":   model,
			"choices": []map[string]any{{
				"index": 0,
				"message": map[string]any{
					"role":    "assistant",
					"content": completionText(req.OutputTokens),
				},
				"finish_reason": "stop",
			}},
			"usage":  usage,
			"valora": valoraExtension(kind, req, now),
		}
	} else {
		resp = map[string]any{
			"id":      fmt.Sprintf("cmpl-%d", req.ID),
			"object":  "text_completion",
			"created": created,
			"model":   model,
			"choices": []map[string]any{{
				"index":         0,
				"text":          completionText(req.OutputTokens),
				"finish_reason": "stop",
			}},
			"usage":  usage,
			"valora": valoraExtension(kind, req, now),
		}
	}
	writeJSON(w, resp)
}

// streamOpenAI emits the completed request as SSE chunks on its
// virtual schedule: one chunk per generated token, each stamped with
// the virtual time it was emitted (first token at FirstToken, the
// rest spaced by the observed inter-token latency), a final chunk
// carrying finish_reason and usage, then the [DONE] sentinel. Chunks
// are written immediately — the schedule is reported, not re-enacted
// in wall time.
func (f *Frontend) streamOpenAI(w http.ResponseWriter, chat bool, model string, kind SystemKind, req *sched.Request, now time.Duration) {
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	created := int64(now / time.Second)
	id := fmt.Sprintf("cmpl-%d", req.ID)
	object := "text_completion"
	if chat {
		id = fmt.Sprintf("chatcmpl-%d", req.ID)
		object = "chat.completion.chunk"
	}
	enc := json.NewEncoder(w)
	writeChunk := func(v any) {
		fmt.Fprint(w, "data: ")
		_ = enc.Encode(v) // Encode appends the newline
		fmt.Fprint(w, "\n")
		flush()
	}
	chunk := func(emit time.Duration, choice map[string]any) map[string]any {
		return map[string]any{
			"id":      id,
			"object":  object,
			"created": created,
			"model":   model,
			"choices": []map[string]any{choice},
			"valora":  map[string]any{"emit_ms": float64(emit-req.Arrival) / float64(time.Millisecond)},
		}
	}

	// The virtual emission timetable: token i at FirstToken + i·ITL.
	itl := time.Duration(0)
	if req.OutputTokens > 1 {
		itl = (req.Finish - req.FirstToken) / time.Duration(req.OutputTokens-1)
	}
	emitAt := func(i int) time.Duration {
		if i == req.OutputTokens-1 {
			return req.Finish // exact, no integer-division drift
		}
		return req.FirstToken + time.Duration(i)*itl
	}

	if chat {
		writeChunk(chunk(req.FirstToken, map[string]any{
			"index": 0,
			"delta": map[string]any{"role": "assistant"},
		}))
	}
	for i := 0; i < req.OutputTokens; i++ {
		text := tokenWord(i)
		if i > 0 {
			text = " " + text
		}
		var choice map[string]any
		if chat {
			choice = map[string]any{"index": 0, "delta": map[string]any{"content": text}}
		} else {
			choice = map[string]any{"index": 0, "text": text}
		}
		writeChunk(chunk(emitAt(i), choice))
	}
	final := map[string]any{"index": 0, "finish_reason": "stop"}
	if chat {
		final["delta"] = map[string]any{}
	} else {
		final["text"] = ""
	}
	last := chunk(req.Finish, final)
	last["usage"] = map[string]any{
		"prompt_tokens":     req.InputTokens,
		"completion_tokens": req.OutputTokens,
		"total_tokens":      req.InputTokens + req.OutputTokens,
	}
	writeChunk(last)
	fmt.Fprint(w, "data: [DONE]\n\n")
	flush()
}

// handleModels lists the base model and every registered adapter in
// the OpenAI model-list shape.
func (f *Frontend) handleModels(w http.ResponseWriter, r *http.Request) {
	// created is 0 for the base model and 1+ID for adapters: stable,
	// deterministic stand-ins (the simulator has no wall clock).
	data := []map[string]any{{
		"id":       f.Model.Name,
		"object":   "model",
		"created":  0,
		"owned_by": "valora",
		"root":     f.Model.Name,
	}}
	for _, a := range f.Adapters() {
		data = append(data, map[string]any{
			"id":       a.Name,
			"object":   "model",
			"created":  1 + a.ID,
			"owned_by": "valora",
			"root":     f.Model.Name,
			"parent":   f.Model.Name,
		})
	}
	writeJSON(w, map[string]any{"object": "list", "data": data})
}
