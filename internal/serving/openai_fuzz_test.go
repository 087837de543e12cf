package serving

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
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
// routes. The typed decoder must accept exactly what the untyped one
// accepted and count the same text and images; the frontend must not
// panic, must answer 200, 400, 404, 413 or 422, must wrap every error
// in the OpenAI envelope, and must keep a 200's usage within the
// per-request caps.
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

		fr := newTestFrontend(t)
		fr.RegisterAdapters("detect", "count")
		for _, path := range []string{"/v1/chat/completions", "/v1/completions"} {
			rec := httptest.NewRecorder()
			fr.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			checkFuzzResponse(t, path, rec)
		}
	})
}

func checkFuzzResponse(t *testing.T, path string, rec *httptest.ResponseRecorder) {
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
		return
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
}
