package serving

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// TestDecodeFastPath names the bodies that must take the fast path and
// some it must decline, and holds every one to encoding/json: the
// decoded fields of an accepted body, and the prompt_tokens the handler
// reports for any body.
func TestDecodeFastPath(t *testing.T) {
	type fastCase struct {
		name, path, body string
		fast             bool
	}
	chat := "/v1/chat/completions"
	cases := []fastCase{
		{"chatBody", chat, string(chatBody(false)), true},
		{"chatBody/stream", chat, string(chatBody(true)), true},
	}
	for _, c := range wireCases() {
		if strings.HasPrefix(c.name, "chat/string/") || c.name == "chat/parts/image" || strings.HasPrefix(c.name, "completions/") {
			cases = append(cases, fastCase{"golden/" + c.name, c.path, c.body, true})
		}
	}
	msg := `[{"role":"user","content":"count the forklifts"}]`
	cases = append(cases,
		// Keys the request types do not name are skipped.
		fastCase{"sampling-fields", chat, `{"model":"count","messages":` + msg +
			`,"temperature":0.7,"top_p":0.9,"n":1,"stop":["END",null],"logit_bias":{"50256":-100}}`, true},
		fastCase{"message-name", chat, `{"messages":[{"role":"user","name":"bob","content":"x"}]}`, true},
		fastCase{"folded-key", chat, `{"MODEL":"count","messages":` + msg + `}`, false},
		fastCase{"repeated-messages", chat, `{"messages":` + msg + `,"messages":` + msg + `}`, false},
		fastCase{"escaped-key", chat, `{"mod\u0065l":"count","messages":` + msg + `}`, false},
		fastCase{"escaped-text", chat, `{"messages":[{"role":"user","content":"tab\tand newline\n"}]}`, false},
		fastCase{"null-field", chat, `{"model":null,"messages":` + msg + `}`, false},
		fastCase{"nesting-100", chat, `{"messages":[{"role":"user","content":` +
			strings.Repeat("[", 100) + strings.Repeat("]", 100) + `}]}`, false},
		fastCase{"folded-message-key", chat, `{"messages":[{"role":"user","Content":"x"}]}`, false},
		fastCase{"repeated-role", chat, `{"messages":[{"role":"user","role":"user","content":"x"}]}`, false},
		fastCase{"part-number-text", chat, `{"messages":[{"role":"user","content":[{"type":"text","text":7}]}]}`, false},
		// The first message is counted before the second one's folded
		// key declines the body.
		fastCase{"late-decline", chat, `{"model":"count","messages":[{"role":"user","content":"counted before the decline"},` +
			`{"role":"user","content":"x","ROLE":"user"}],"max_tokens":2}`, false},
	)

	f := newTestFrontend(t)
	f.RegisterAdapters("detect", "count")
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			data := []byte(c.body)
			var want openAIRequest
			if err := json.NewDecoder(bytes.NewReader(data)).Decode(&want); err != nil {
				t.Fatalf("encoding/json rejects the body: %v", err)
			}
			var got openAIRequest
			if accepted := decodeOpenAIRequest(data, &got); accepted != c.fast {
				t.Fatalf("fast path accepted = %v, want %v", accepted, c.fast)
			}
			if c.fast {
				if diff := requestDiff(&got, &want); diff != "" {
					t.Fatalf("fast path and encoding/json disagree on %s", diff)
				}
			}

			shape := want.shape()
			if want.Images > 0 {
				shape.images = want.Images
			}
			wantTokens, _, apiErr := f.tokenCounts(&want, shape)
			if apiErr != nil {
				t.Fatal(apiErr.msg)
			}
			rec := postJSON(t, f, c.path, c.body)
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
			if got := checkFuzzResponse(t, c.path, rec); got != wantTokens {
				t.Fatalf("handler reports %d prompt tokens, encoding/json's decode gives %d", got, wantTokens)
			}
		})
	}
}
