package serving

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"
	"unicode/utf8"

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
//
// A request body is read whole into a pooled buffer, bounded by
// maxBodyBytes. A body without escapes or null fields takes a fast path
// (decodeOpenAIRequest, openai_decode.go): one forward scan that fills
// openAIRequest and counts the prompt's text and images as it goes,
// allocating only the strings the request keeps. The scan declines any
// body outside that shape, and encoding/json decodes it into the types
// below instead; its error, if any, is the 400's text. The scan's
// values equal encoding/json's on every body it accepts.
//
// Every response is a typed value encoded in one pass into a pooled
// buffer. A stream goes out in two writes: the headers and the first
// token's chunks, flushed at once so a streaming client's first byte
// is not held back, then every remaining chunk and [DONE].

// openAIRequest is the accepted body of both completion endpoints.
// Standard OpenAI fields plus simulator extensions (adapter_id,
// input_tokens, output_tokens, images, system, deadline_ms) for
// precise workload control; the extensions win over the heuristics
// when set.
type openAIRequest struct {
	Model    string          `json:"model"`
	Messages []openAIMessage `json:"messages"` // chat endpoint
	Prompt   completionInput `json:"prompt"`   // completions endpoint

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

	// chatShape is the messages' summed content shape as
	// decodeOpenAIRequest counts it, keeping no per-message state;
	// encoding/json leaves it zero.
	chatShape promptShape
}

// maxBodyBytes bounds a completion request body. A prompt at
// maxInputTokens is about 4 MiB at the frontend's ~4 characters per
// text token, so 8 MiB admits every servable prompt with headroom.
const maxBodyBytes = 8 << 20

// maxDeadlineMS is the largest deadline_ms whose nanosecond value fits
// in a time.Duration.
const maxDeadlineMS = float64(math.MaxInt64 / int64(time.Millisecond))

// openAIMessage is one chat message.
type openAIMessage struct {
	Role    string         `json:"role"`
	Content messageContent `json:"content"`
}

// promptShape is what a prompt contributes to a request: its text
// length in bytes and its image count.
type promptShape struct {
	textLen, images int
}

// messageContent is a chat message's content: a string, or an array
// of typed parts as in the vision API. A part is an object whose
// "type" is "text" (its string "text" counts) or "image_url" (one
// image). Decoding is as lenient as decoding into an untyped value:
// any JSON is accepted, anything of another shape counts nothing, and
// only a number past float64 range is an error.
type messageContent struct{ promptShape }

func (c *messageContent) UnmarshalJSON(data []byte) error {
	c.promptShape = promptShape{}
	switch data[0] {
	case '"':
		c.textLen = stringLen(data)
		return nil
	case '[':
		return eachElement(data, c.addPart)
	}
	return checkGeneric(data)
}

// addPart counts one element of a content array. Keys match exactly
// and the last duplicate wins, as they would in a decoded map.
func (c *messageContent) addPart(dec *json.Decoder, tok json.Token) error {
	if tok != json.Delim('{') {
		return skipOpened(dec, tok)
	}
	var kind, text any
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return err
		}
		var v any
		if err := dec.Decode(&v); err != nil {
			return err
		}
		switch key {
		case "type":
			kind = v
		case "text":
			text = v
		}
	}
	if _, err := dec.Token(); err != nil { // the closing brace
		return err
	}
	switch kind {
	case "image_url":
		c.images++
	case "text":
		if s, ok := text.(string); ok {
			c.textLen += len(s)
		}
	}
	return nil
}

// completionInput is the legacy completions prompt: a string or an
// array whose string elements count. Other shapes are accepted and
// count nothing, as for messageContent.
type completionInput struct{ textLen int }

func (p *completionInput) UnmarshalJSON(data []byte) error {
	p.textLen = 0
	switch data[0] {
	case '"':
		p.textLen = stringLen(data)
		return nil
	case '[':
		return eachElement(data, func(dec *json.Decoder, tok json.Token) error {
			if s, ok := tok.(string); ok {
				p.textLen += len(s)
			}
			return skipOpened(dec, tok)
		})
	}
	return checkGeneric(data)
}

// stringLen is the decoded byte length of a JSON string literal. Plain
// UTF-8 without escapes is measured in place; anything else is decoded
// (escapes, and invalid bytes that decode to U+FFFD).
func stringLen(lit []byte) int {
	body := lit[1 : len(lit)-1]
	if bytes.IndexByte(body, '\\') < 0 && utf8.Valid(body) {
		return len(body)
	}
	var s string
	_ = json.Unmarshal(lit, &s) // the decoder already validated lit
	return len(s)
}

// eachElement reads the JSON array data token by token and calls fn
// with each element's first token; fn must consume the rest of it.
func eachElement(data []byte, fn func(dec *json.Decoder, tok json.Token) error) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	if _, err := dec.Token(); err != nil { // the opening bracket
		return err
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		if err := fn(dec, tok); err != nil {
			return err
		}
	}
	return nil
}

// skipOpened consumes the rest of a value whose first token was tok,
// decoding its members as untyped values so that an out-of-range
// number fails as it would in a full untyped decode.
func skipOpened(dec *json.Decoder, tok json.Token) error {
	if tok != json.Delim('{') && tok != json.Delim('[') {
		return nil // a scalar is a single token
	}
	for dec.More() {
		if tok == json.Delim('{') {
			if _, err := dec.Token(); err != nil { // the key
				return err
			}
		}
		var v any
		if err := dec.Decode(&v); err != nil {
			return err
		}
	}
	_, err := dec.Token() // the closing delimiter
	return err
}

// checkGeneric accepts exactly what decoding data into an untyped
// value accepts.
func checkGeneric(data []byte) error {
	var v any
	return json.Unmarshal(data, &v)
}

// shape sums the prompt's text length and images over the chat
// messages and the completions prompt.
func (body *openAIRequest) shape() promptShape {
	s := body.chatShape
	s.textLen += body.Prompt.textLen
	for i := range body.Messages {
		c := body.Messages[i].Content
		s.textLen += c.textLen
		s.images += c.images
	}
	return s
}

// fillerWords cycles to synthesize deterministic completion text, one
// word per generated token.
var fillerWords = []string{
	"the", "adapter", "serves", "a", "vision", "request", "through",
	"merged", "weights", "while", "tokens", "stream", "from", "virtual",
	"time",
}

// appendToken appends the i-th token of the deterministic completion:
// its word, after a space unless it is the first. The words are plain
// ASCII and need no escaping inside a JSON string.
func appendToken(b []byte, i int) []byte {
	if i > 0 {
		b = append(b, ' ')
	}
	return append(b, fillerWords[i%len(fillerWords)]...)
}

// apiError is a request failure, answered in the OpenAI error
// envelope with its HTTP status.
type apiError struct {
	status int
	msg    string
}

func badRequest(format string, args ...any) *apiError {
	return &apiError{http.StatusBadRequest, fmt.Sprintf(format, args...)}
}

// openAIError writes the OpenAI error envelope: a server_error for a
// 5xx status, an invalid_request_error otherwise.
func openAIError(w http.ResponseWriter, status int, msg string) {
	kind := "invalid_request_error"
	if status >= 500 {
		kind = "server_error"
	}
	buf := getWireBuf()
	defer putWireBuf(buf)
	b := append(*buf, `{"error":{"message":`...)
	b = appendString(b, msg)
	b = append(b, `,"type":"`...)
	b = append(b, kind...)
	b = append(b, `","code":`...)
	b = appendInt(b, int64(status))
	*buf = append(b, "}}\n"...)
	writeJSONBody(w, status, *buf)
}

// liveCall is a validated request bound to the live engine that will
// serve it.
type liveCall struct {
	req  *sched.Request
	kind SystemKind
	eng  *liveEngine
	// synthBound: no adapters are registered, so the engine's bound on
	// synthesized adapters applies.
	synthBound bool
	// recycleAt is the request count at which the engine retires.
	recycleAt int
}

// buildOpenAIRequest validates the body and binds the simulated
// request to its live engine. Everything that reads frontend state
// (the adapter registry, the request sequence, the engine list and
// the recycle cap) is resolved in one f.mu critical section.
func (f *Frontend) buildOpenAIRequest(body *openAIRequest) (liveCall, *apiError) {
	kind, err := f.systemOf(body.System)
	if err != nil {
		return liveCall{}, badRequest("%v", err)
	}
	if body.DeadlineMS < 0 || body.DeadlineMS > maxDeadlineMS {
		return liveCall{}, badRequest("deadline_ms must be in [0, %.0f]", maxDeadlineMS)
	}
	if body.AdapterID != nil && *body.AdapterID < 0 {
		return liveCall{}, badRequest("adapter_id must not be negative")
	}

	shape := body.shape()
	if body.Images > 0 {
		shape.images = body.Images
	}
	// Reported after the adapter lookup, which takes precedence.
	in, out, fieldErr := f.tokenCounts(body, shape)

	f.mu.Lock()
	defer f.mu.Unlock()
	adapter := 0
	if body.AdapterID != nil {
		adapter = *body.AdapterID
		if n := len(f.adapters); n > 0 && adapter >= n {
			return liveCall{}, &apiError{http.StatusNotFound,
				fmt.Sprintf("adapter_id %d is not registered (%d adapters, see /v1/models)", adapter, n)}
		}
	} else {
		id, ok := f.adapterByModel(body.Model)
		if !ok {
			return liveCall{}, &apiError{http.StatusNotFound,
				fmt.Sprintf("model %q not found (see /v1/models)", body.Model)}
		}
		adapter = id
	}
	if fieldErr != nil {
		return liveCall{}, fieldErr
	}
	f.seq++
	req := &sched.Request{
		ID:           f.seq,
		AdapterID:    adapter,
		App:          sched.VisualRetrieval,
		Task:         train.VisualQA,
		Head:         train.LMHead,
		InputTokens:  in,
		OutputTokens: out,
		Images:       uint16(shape.images),
		Tenant:       body.User,
		Deadline:     time.Duration(body.DeadlineMS * float64(time.Millisecond)),
	}
	eng, err := f.instance(kind)
	if err != nil {
		return liveCall{}, &apiError{http.StatusInternalServerError, err.Error()}
	}
	return liveCall{req: req, kind: kind, eng: eng, synthBound: len(f.adapters) == 0, recycleAt: f.liveCap}, nil
}

// tokenCounts works out the request's prompt and output token counts
// and checks them and the image count against the per-request caps.
func (f *Frontend) tokenCounts(body *openAIRequest, shape promptShape) (in, out int, err *apiError) {
	// Each image adds VisualTokens to the prompt, so more images than
	// fit in maxInputTokens can never be served; the cap also keeps the
	// count within Request.Images' uint16.
	if maxImages := min(maxInputTokens/f.Model.VisualTokens, math.MaxUint16); shape.images > maxImages {
		return 0, 0, badRequest("images exceeds the per-request maximum (%d)", maxImages)
	}
	in = body.InputTokens
	if in <= 0 {
		// ~4 chars per text token plus the visual tokens each image
		// contributes after the encoder.
		in = (shape.textLen+3)/4 + shape.images*f.Model.VisualTokens
		if in <= 0 {
			in = 1
		}
	}
	out = body.OutputTokens
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
		return 0, 0, badRequest("token counts exceed the per-request maximum (%d in, %d out)", maxInputTokens, maxOutputTokens)
	}
	return in, out, nil
}

func (f *Frontend) handleChatCompletions(w http.ResponseWriter, r *http.Request) {
	f.handleOpenAI(w, r, true)
}

func (f *Frontend) handleCompletions(w http.ResponseWriter, r *http.Request) {
	f.handleOpenAI(w, r, false)
}

func (f *Frontend) handleOpenAI(w http.ResponseWriter, r *http.Request, chat bool) {
	if r.Method != http.MethodPost {
		openAIError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	in := getWireBuf()
	defer putWireBuf(in)
	data, err := readBody(*in, r.Body, maxBodyBytes)
	*in = data
	if errors.Is(err, errBodyTooLarge) {
		openAIError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes))
		return
	}
	var body openAIRequest
	if err == nil && !decodeOpenAIRequest(data, &body) {
		// A zero value, so nothing the scan summed before it declined
		// survives; decoding into a separate one keeps body off the heap.
		fresh := new(openAIRequest)
		err = json.NewDecoder(bytes.NewReader(data)).Decode(fresh)
		body = *fresh
	}
	if err != nil {
		openAIError(w, http.StatusBadRequest, fmt.Sprintf("bad request: %v", err))
		return
	}
	call, apiErr := f.buildOpenAIRequest(&body)
	if apiErr != nil {
		openAIError(w, apiErr.status, apiErr.msg)
		return
	}
	now, status, err := f.runLive(call)
	if err != nil {
		openAIError(w, status, err.Error())
		return
	}
	req := call.req
	head := completionHead{chat: chat, id: req.ID, created: int64(now / time.Second), model: body.Model}
	if head.model == "" {
		head.model = f.Model.Name
	}
	if body.Stream {
		streamOpenAI(w, &head, req)
		return
	}
	resp := completionResponse{
		completionHead: head,
		tokens:         req.OutputTokens,
		usage:          usageOf(req),
		valora: valoraTiming{
			system:      call.kind,
			adapter:     req.AdapterID,
			ttft:        req.FirstToken - req.Arrival,
			e2e:         req.Latency(),
			queueWait:   req.FirstSchedule - req.Arrival,
			coldStart:   req.ColdStart,
			preemptions: int(req.PreemptCount),
			virtualNow:  now,
		},
	}
	buf := getWireBuf()
	defer putWireBuf(buf)
	*buf = resp.appendJSON(*buf)
	writeJSONBody(w, http.StatusOK, *buf)
}

// openAIUsage is the usage block of a response or final chunk.
type openAIUsage struct {
	promptTokens, completionTokens int
}

func usageOf(req *sched.Request) openAIUsage {
	return openAIUsage{promptTokens: req.InputTokens, completionTokens: req.OutputTokens}
}

func (u openAIUsage) appendJSON(b []byte) []byte {
	b = append(b, `{"prompt_tokens":`...)
	b = appendInt(b, int64(u.promptTokens))
	b = append(b, `,"completion_tokens":`...)
	b = appendInt(b, int64(u.completionTokens))
	b = append(b, `,"total_tokens":`...)
	b = appendInt(b, int64(u.promptTokens+u.completionTokens))
	return append(b, '}')
}

// valoraTiming is the simulator's "valora" sidecar on a complete
// response: where the request ran and its latencies on the live
// engine's virtual clock, in milliseconds on the wire.
type valoraTiming struct {
	system               SystemKind
	adapter              int
	ttft, e2e, queueWait time.Duration
	coldStart            bool
	preemptions          int
	virtualNow           time.Duration
}

func (v *valoraTiming) appendJSON(b []byte) []byte {
	b = append(b, `{"system":`...)
	b = appendString(b, string(v.system))
	b = append(b, `,"adapter":`...)
	b = appendInt(b, int64(v.adapter))
	b = append(b, `,"ttft_ms":`...)
	b = appendMS(b, v.ttft)
	b = append(b, `,"e2e_ms":`...)
	b = appendMS(b, v.e2e)
	b = append(b, `,"queue_wait_ms":`...)
	b = appendMS(b, v.queueWait)
	b = append(b, `,"cold_start":`...)
	b = strconv.AppendBool(b, v.coldStart)
	b = append(b, `,"preemptions":`...)
	b = appendInt(b, int64(v.preemptions))
	b = append(b, `,"virtual_now_ms":`...)
	b = appendMS(b, v.virtualNow)
	return append(b, '}')
}

// completionHead is what a response and each of its stream chunks
// share: the ID (chatcmpl-N or cmpl-N), the virtual creation second
// and the model.
type completionHead struct {
	chat    bool
	id      int64
	created int64
	model   string
}

// appendOpen opens the response object with its head fields.
func (h *completionHead) appendOpen(b []byte, object string) []byte {
	b = append(b, `{"id":"`...)
	if h.chat {
		b = append(b, "chatcmpl-"...)
	} else {
		b = append(b, "cmpl-"...)
	}
	b = appendInt(b, h.id)
	b = append(b, `","object":"`...)
	b = append(b, object...)
	b = append(b, `","created":`...)
	b = appendInt(b, h.created)
	b = append(b, `,"model":`...)
	return appendString(b, h.model)
}

// completionResponse is a non-streamed chat or text completion.
type completionResponse struct {
	completionHead
	tokens int // length of the deterministic completion
	usage  openAIUsage
	valora valoraTiming
}

func (r *completionResponse) appendJSON(b []byte) []byte {
	if r.chat {
		b = r.appendOpen(b, "chat.completion")
		b = append(b, `,"choices":[{"index":0,"message":{"role":"assistant","content":"`...)
	} else {
		b = r.appendOpen(b, "text_completion")
		b = append(b, `,"choices":[{"index":0,"text":"`...)
	}
	for i := 0; i < r.tokens; i++ {
		b = appendToken(b, i)
	}
	if r.chat {
		b = append(b, `"}`...)
	} else {
		b = append(b, '"')
	}
	b = append(b, `,"finish_reason":"stop"}],"usage":`...)
	b = r.usage.appendJSON(b)
	b = append(b, `,"valora":`...)
	b = r.valora.appendJSON(b)
	return append(b, "}\n"...)
}

// chunkKind selects a stream chunk's choice: the chat role
// announcement, one token, or the final chunk with finish_reason and
// usage.
type chunkKind uint8

const (
	chunkRole chunkKind = iota
	chunkToken
	chunkFinal
)

// streamChunk is one SSE event of a streamed completion, stamped with
// its virtual emission time since arrival ("valora": {"emit_ms"}).
type streamChunk struct {
	head  *completionHead
	kind  chunkKind
	token int // the token index of a chunkToken
	emit  time.Duration
	usage openAIUsage // on the chunkFinal
}

// appendEvent appends the chunk as one "data: " event.
func (c *streamChunk) appendEvent(b []byte) []byte {
	b = append(b, "data: "...)
	chat := c.head.chat
	if chat {
		b = c.head.appendOpen(b, "chat.completion.chunk")
	} else {
		b = c.head.appendOpen(b, "text_completion")
	}
	b = append(b, `,"choices":[{"index":0,`...)
	switch {
	case c.kind == chunkRole:
		b = append(b, `"delta":{"role":"assistant"}}]`...)
	case c.kind == chunkToken && chat:
		b = append(b, `"delta":{"content":"`...)
		b = appendToken(b, c.token)
		b = append(b, `"}}]`...)
	case c.kind == chunkToken:
		b = append(b, `"text":"`...)
		b = appendToken(b, c.token)
		b = append(b, `"}]`...)
	case chat:
		b = append(b, `"delta":{},"finish_reason":"stop"}]`...)
	default:
		b = append(b, `"text":"","finish_reason":"stop"}]`...)
	}
	if c.kind == chunkFinal {
		b = append(b, `,"usage":`...)
		b = c.usage.appendJSON(b)
	}
	b = append(b, `,"valora":{"emit_ms":`...)
	b = appendMS(b, c.emit)
	return append(b, "}}\n\n"...)
}

// streamOpenAI sends the completed request as SSE chunks stamped with
// their virtual schedule: the role chunk (chat only), one chunk per
// generated token (the first at FirstToken, the rest spaced by the
// observed inter-token latency), a final chunk with finish_reason and
// usage, then the [DONE] sentinel. The timetable is complete before
// the first byte, so it is reported, not re-enacted: the first write
// carries the headers and the chunks up to the first token and is
// flushed at once, the second carries the rest and goes out when the
// handler returns.
func streamOpenAI(w http.ResponseWriter, head *completionHead, req *sched.Request) {
	h := w.Header()
	h["Content-Type"] = sseContentType
	h["Cache-Control"] = noCacheControl

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

	buf := getWireBuf()
	defer putWireBuf(buf)
	b := *buf
	c := streamChunk{head: head, kind: chunkRole, emit: req.FirstToken - req.Arrival}
	if head.chat {
		b = c.appendEvent(b)
	}
	c.kind, c.emit = chunkToken, emitAt(0)-req.Arrival
	b = c.appendEvent(b)
	_, _ = w.Write(b)
	if fl, ok := w.(http.Flusher); ok {
		fl.Flush()
	}

	b = b[:0]
	for i := 1; i < req.OutputTokens; i++ {
		c.token, c.emit = i, emitAt(i)-req.Arrival
		b = c.appendEvent(b)
	}
	c.kind, c.emit, c.usage = chunkFinal, req.Finish-req.Arrival, usageOf(req)
	b = c.appendEvent(b)
	b = append(b, "data: [DONE]\n\n"...)
	_, _ = w.Write(b)
	*buf = b
}

// modelCard is one /v1/models entry. The base model has no parent;
// created is 0 for it and 1+ID for an adapter, stable stand-ins for a
// wall clock the simulator does not have.
type modelCard struct {
	id, root, parent string
	created          int
}

func (m *modelCard) appendJSON(b []byte) []byte {
	b = append(b, `{"id":`...)
	b = appendString(b, m.id)
	b = append(b, `,"object":"model","created":`...)
	b = appendInt(b, int64(m.created))
	b = append(b, `,"owned_by":"valora","root":`...)
	b = appendString(b, m.root)
	if m.parent != "" {
		b = append(b, `,"parent":`...)
		b = appendString(b, m.parent)
	}
	return append(b, '}')
}

// handleModels lists the base model and every registered adapter in
// the OpenAI model-list shape.
func (f *Frontend) handleModels(w http.ResponseWriter, r *http.Request) {
	base := f.Model.Name
	buf := getWireBuf()
	defer putWireBuf(buf)
	b := append(*buf, `{"object":"list","data":[`...)
	b = (&modelCard{id: base, root: base}).appendJSON(b)
	for _, a := range f.Adapters() {
		b = append(b, ',')
		b = (&modelCard{id: a.Name, root: base, parent: base, created: 1 + a.ID}).appendJSON(b)
	}
	*buf = append(b, "]}\n"...)
	writeJSONBody(w, http.StatusOK, *buf)
}
