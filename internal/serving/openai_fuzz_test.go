package serving

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
)

// legacyRequest is the request body as it decoded before typed
// decoding: content and prompt as untyped values. It is the oracle for
// the typed decoder's leniency.
type legacyRequest struct {
	Model    string `json:"model"`
	Messages []struct {
		Role    string `json:"role"`
		Content any    `json:"content"`
	} `json:"messages"`
	Prompt any `json:"prompt"`

	MaxTokens           int     `json:"max_tokens"`
	MaxCompletionTokens int     `json:"max_completion_tokens"`
	Stream              bool    `json:"stream"`
	User                string  `json:"user"`
	AdapterID           *int    `json:"adapter_id"`
	InputTokens         int     `json:"input_tokens"`
	OutputTokens        int     `json:"output_tokens"`
	Images              int     `json:"images"`
	System              string  `json:"system"`
	DeadlineMS          float64 `json:"deadline_ms"`
}

// legacyShape is the untyped walk the typed decoder replaced.
func legacyShape(body *legacyRequest) promptShape {
	var s promptShape
	for _, m := range body.Messages {
		switch c := m.Content.(type) {
		case string:
			s.textLen += len(c)
		case []any:
			for _, part := range c {
				p, ok := part.(map[string]any)
				if !ok {
					continue
				}
				switch p["type"] {
				case "image_url":
					s.images++
				case "text":
					if t, ok := p["text"].(string); ok {
						s.textLen += len(t)
					}
				}
			}
		}
	}
	switch p := body.Prompt.(type) {
	case string:
		s.textLen += len(p)
	case []any:
		for _, e := range p {
			if t, ok := e.(string); ok {
				s.textLen += len(t)
			}
		}
	}
	return s
}

// FuzzOpenAIRequest drives arbitrary bodies through both completion
// routes. A body the fast path (decodeOpenAIRequest) accepts must be
// one encoding/json's Decoder accepts into openAIRequest, with the same
// fields and shape; the typed decoder must accept exactly what the
// untyped one accepted and count the same text and images; the
// frontend must not panic, must answer 200, 400, 404, 413 or 422, must
// wrap every error in the OpenAI envelope, and must keep a 200's usage
// within the per-request caps.
func FuzzOpenAIRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var typed openAIRequest
		var legacy legacyRequest
		typedErr := json.NewDecoder(bytes.NewReader(body)).Decode(&typed)
		legacyErr := json.NewDecoder(bytes.NewReader(body)).Decode(&legacy)
		if (typedErr == nil) != (legacyErr == nil) {
			t.Fatalf("typed decode error %v, untyped decode error %v", typedErr, legacyErr)
		}
		if typedErr == nil {
			if got, want := typed.shape(), legacyShape(&legacy); got != want {
				t.Fatalf("typed shape %+v, untyped shape %+v", got, want)
			}
		}

		var scanned openAIRequest
		if decodeOpenAIRequest(body, &scanned) {
			if typedErr != nil {
				t.Fatalf("fast path accepted a body encoding/json rejects: %v", typedErr)
			}
			if diff := requestDiff(&scanned, &typed); diff != "" {
				t.Fatalf("fast path and encoding/json disagree on %s", diff)
			}
		}

		fr := newTestFrontend(t)
		fr.RegisterAdapters("detect", "count")
		for _, path := range []string{"/v1/chat/completions", "/v1/completions"} {
			rec := httptest.NewRecorder()
			fr.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			checkFuzzResponse(t, path, rec)
		}
	})
}

// requestDiff names the first field on which two decoded requests
// differ, or returns "" when they agree: every scalar field, deadline_ms
// bit for bit, adapter_id nil or its value, and the prompt shape.
func requestDiff(a, b *openAIRequest) string {
	switch {
	case a.Model != b.Model:
		return fmt.Sprintf("model: %q, %q", a.Model, b.Model)
	case a.User != b.User:
		return fmt.Sprintf("user: %q, %q", a.User, b.User)
	case a.System != b.System:
		return fmt.Sprintf("system: %q, %q", a.System, b.System)
	case a.MaxTokens != b.MaxTokens, a.MaxCompletionTokens != b.MaxCompletionTokens,
		a.InputTokens != b.InputTokens, a.OutputTokens != b.OutputTokens, a.Images != b.Images:
		return fmt.Sprintf("ints: %d %d %d %d %d, %d %d %d %d %d",
			a.MaxTokens, a.MaxCompletionTokens, a.InputTokens, a.OutputTokens, a.Images,
			b.MaxTokens, b.MaxCompletionTokens, b.InputTokens, b.OutputTokens, b.Images)
	case a.Stream != b.Stream:
		return fmt.Sprintf("stream: %v, %v", a.Stream, b.Stream)
	case (a.AdapterID == nil) != (b.AdapterID == nil) || a.AdapterID != nil && *a.AdapterID != *b.AdapterID:
		return fmt.Sprintf("adapter_id: %s, %s", optInt(a.AdapterID), optInt(b.AdapterID))
	case math.Float64bits(a.DeadlineMS) != math.Float64bits(b.DeadlineMS):
		return fmt.Sprintf("deadline_ms: %v, %v", a.DeadlineMS, b.DeadlineMS)
	case a.shape() != b.shape():
		return fmt.Sprintf("shape: %+v, %+v", a.shape(), b.shape())
	}
	return ""
}

func optInt(p *int) string {
	if p == nil {
		return "nil"
	}
	return strconv.Itoa(*p)
}

// checkFuzzResponse checks a response as FuzzOpenAIRequest requires
// and returns a 200's usage.prompt_tokens, or 0 for an error status.
func checkFuzzResponse(t *testing.T, path string, rec *httptest.ResponseRecorder) int {
	t.Helper()
	switch rec.Code {
	case http.StatusOK:
	case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
		var env struct {
			Error *struct {
				Message *string `json:"message"`
				Type    string  `json:"type"`
				Code    int     `json:"code"`
			} `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == nil || env.Error.Message == nil ||
			env.Error.Type != "invalid_request_error" || env.Error.Code != rec.Code {
			t.Fatalf("%s: status %d without the OpenAI error envelope: %q", path, rec.Code, rec.Body)
		}
		return 0
	default:
		t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
	}

	var usage struct {
		Usage *struct {
			PromptTokens     int `json:"prompt_tokens"`
			CompletionTokens int `json:"completion_tokens"`
		} `json:"usage"`
	}
	if rec.Header().Get("Content-Type") == "text/event-stream" {
		events := decodeSSEEvents(t, path, rec.Body.Bytes())
		if len(events) < 2 {
			t.Fatalf("%s: stream of %d events", path, len(events))
		}
		final, _ := json.Marshal(events[len(events)-2])
		if err := json.Unmarshal(final, &usage); err != nil {
			t.Fatal(err)
		}
	} else if err := json.Unmarshal(rec.Body.Bytes(), &usage); err != nil {
		t.Fatalf("%s: bad 200 body: %v: %q", path, err, rec.Body)
	}
	u := usage.Usage
	if u == nil || u.CompletionTokens < 1 || u.CompletionTokens > maxOutputTokens ||
		u.PromptTokens < 1 || u.PromptTokens > maxInputTokens {
		t.Fatalf("%s: usage out of bounds: %s", path, rec.Body)
	}
	return u.PromptTokens
}
