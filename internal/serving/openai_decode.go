package serving

import (
	"bytes"
	"errors"
	"io"
	"strconv"
	"unicode/utf8"
)

// The completion endpoints' fast path: one forward scan over a body,
// which fills an openAIRequest and sums the prompt's text and images as
// it goes. It either accepts the body, and then its values are the ones
//
//	json.NewDecoder(bytes.NewReader(data)).Decode(&openAIRequest{})
//
// gives (FuzzOpenAIRequest checks this), or it declines the body and
// the handler decodes it with encoding/json instead, which also decides
// whether the body is malformed and words the 400.
//
// The scan accepts a top-level object whose keys are unescaped, each
// field name exact and at most once, any other key one that matches no
// name even with case folded; messages alike; strings without escapes
// that are valid UTF-8, so that their bytes are their decoded value;
// null and numbers only inside a content or prompt value or the value
// of a key it skips, each number one strconv's ParseFloat takes; and
// fewer than maxDepth open containers. It declines everything else, so
// it needs none of encoding/json's rules for case-folded or repeated
// keys, escapes, or a null field. Bytes after the object are ignored,
// as encoding/json's Decoder ignores them.

// maxDepth bounds the containers open at once, and with them the
// scan's recursion.
const maxDepth = 64

// errBodyTooLarge is readBody's report of a body past its limit.
var errBodyTooLarge = errors.New("request body too large")

// requestFields and messageFields are openAIRequest's and
// openAIMessage's JSON names.
var (
	requestFields = []string{"model", "messages", "prompt", "max_tokens", "max_completion_tokens", "stream",
		"user", "adapter_id", "input_tokens", "output_tokens", "images", "system", "deadline_ms"}
	messageFields = []string{"role", "content"}
)

// decodeOpenAIRequest decodes a completion request body into body and
// reports whether it accepted it; a declined body leaves partial values.
// Only the strings the request keeps (model, user, system) are
// allocated, and nothing in body aliases data.
func decodeOpenAIRequest(data []byte, body *openAIRequest) bool {
	*body = openAIRequest{}
	d := reqDecoder{data: data}
	d.skipSpace()
	return d.peek() == '{' && d.request(body)
}

// readBody appends r's contents to b. Past limit bytes it stops and
// reports errBodyTooLarge.
func readBody(b []byte, r io.Reader, limit int) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):min(cap(b), limit+1)])
		b = b[:len(b)+n]
		if len(b) > limit {
			return b, errBodyTooLarge
		}
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// reqDecoder is one scan over a request body. Every value method is
// called with off at the value's first byte, returns with off just past
// it, and reports false to decline the body.
type reqDecoder struct {
	data  []byte
	off   int
	depth int // containers open at off
}

func (d *reqDecoder) peek() byte {
	if d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0
}

func (d *reqDecoder) skipSpace() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// elements scans the object or array at off and calls fn with off at
// each element's value, and with the element's key in an object; fn
// must consume the value.
func (d *reqDecoder) elements(fn func(key []byte) bool) bool {
	object := d.peek() == '{'
	end := byte(']')
	if object {
		end = '}'
	}
	if d.depth++; d.depth >= maxDepth {
		return false
	}
	d.off++
	for n := 0; ; n++ {
		d.skipSpace()
		switch c := d.peek(); {
		case c == end:
			d.off++
			d.depth--
			return true
		case n > 0 && c != ',':
			return false
		case n > 0:
			d.off++
			d.skipSpace()
		}
		var key []byte
		if object {
			var ok bool
			key, ok = d.str()
			if d.skipSpace(); !ok || d.peek() != ':' {
				return false
			}
			d.off++
			d.skipSpace()
		}
		if !fn(key) {
			return false
		}
	}
}

// literal consumes the literal word if it comes next.
func (d *reqDecoder) literal(word string) bool {
	if len(d.data)-d.off < len(word) || string(d.data[d.off:d.off+len(word)]) != word {
		return false
	}
	d.off += len(word)
	return true
}

// str scans a string literal and returns its contents. It declines one
// with an escape or invalid UTF-8, so the contents it returns are the
// string's decoded value. Since it declines every backslash, the first
// quote after the opening one closes the string.
func (d *reqDecoder) str() ([]byte, bool) {
	if d.peek() != '"' {
		return nil, false
	}
	rest := d.data[d.off+1:]
	n := bytes.IndexByte(rest, '"')
	if n < 0 {
		return nil, false
	}
	s := rest[:n]
	d.off += n + 2
	for _, c := range s {
		if c < 0x20 || c == '\\' {
			return nil, false
		}
	}
	return s, utf8.Valid(s)
}

// number scans a number literal and returns it, or nil if none comes
// next.
func (d *reqDecoder) number() []byte {
	data, i := d.data, d.off
	digits := func() int {
		start := i
		for i < len(data) && '0' <= data[i] && data[i] <= '9' {
			i++
		}
		return i - start
	}
	if i < len(data) && data[i] == '-' {
		i++
	}
	if n := digits(); n == 0 || n > 1 && data[i-n] == '0' { // no leading zero
		return nil
	}
	if i < len(data) && data[i] == '.' {
		if i++; digits() == 0 {
			return nil
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		if i++; i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if digits() == 0 {
			return nil
		}
	}
	lit := data[d.off:i]
	d.off = i
	return lit
}

// float scans a number that must parse as a float64.
func (d *reqDecoder) float() (float64, bool) {
	f, err := strconv.ParseFloat(string(d.number()), 64)
	return f, err == nil
}

// skip scans one value of a content or prompt, decoded untyped: every
// number in it must parse as a float64.
func (d *reqDecoder) skip() bool {
	switch c := d.peek(); {
	case c == '{' || c == '[':
		return d.elements(func([]byte) bool { return d.skip() })
	case c == '"':
		_, ok := d.str()
		return ok
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	}
	_, ok := d.float()
	return ok
}

// field returns the name in names that key is, marking it in seen, or
// "" for a key that is no name's, whose value the caller skips. It
// reports false, to decline, for a name seen before and for a key that
// matches a name only when case is folded, as encoding/json matches it
// (bytes.EqualFold is its folding).
func field(key []byte, names []string, seen *uint16) (string, bool) {
	for i, name := range names {
		if string(key) == name {
			taken := *seen&(1<<i) != 0
			*seen |= 1 << i
			return name, !taken
		}
	}
	for _, name := range names {
		if bytes.EqualFold(key, []byte(name)) {
			return "", false
		}
	}
	return "", true
}

// request decodes the top-level object into body.
func (d *reqDecoder) request(body *openAIRequest) bool {
	var seen uint16
	return d.elements(func(key []byte) bool {
		name, ok := field(key, requestFields, &seen)
		if !ok {
			return false
		}
		switch name {
		case "model":
			return d.stringField(&body.Model)
		case "messages":
			return d.peek() == '[' && d.elements(func([]byte) bool { return d.message(&body.chatShape) })
		case "prompt":
			return d.prompt(&body.Prompt.textLen)
		case "max_tokens":
			return d.intField(&body.MaxTokens)
		case "max_completion_tokens":
			return d.intField(&body.MaxCompletionTokens)
		case "stream":
			body.Stream = d.peek() == 't'
			return d.literal("true") || d.literal("false")
		case "user":
			return d.stringField(&body.User)
		case "adapter_id":
			body.AdapterID = new(int)
			return d.intField(body.AdapterID)
		case "input_tokens":
			return d.intField(&body.InputTokens)
		case "output_tokens":
			return d.intField(&body.OutputTokens)
		case "images":
			return d.intField(&body.Images)
		case "system":
			return d.stringField(&body.System)
		case "deadline_ms":
			body.DeadlineMS, ok = d.float()
			return ok
		}
		return d.skip()
	})
}

func (d *reqDecoder) stringField(dst *string) bool {
	s, ok := d.str()
	if ok {
		*dst = string(s)
	}
	return ok
}

// intField decodes a number that must parse as an int64.
func (d *reqDecoder) intField(dst *int) bool {
	n, err := strconv.ParseInt(string(d.number()), 10, 64)
	*dst = int(n)
	return err == nil
}

// text adds the length of the string at off to *n.
func (d *reqDecoder) text(n *int) bool {
	s, ok := d.str()
	*n += len(s)
	return ok
}

// message adds one chat message's content to shape.
func (d *reqDecoder) message(shape *promptShape) bool {
	var seen uint16
	return d.peek() == '{' && d.elements(func(key []byte) bool {
		name, ok := field(key, messageFields, &seen)
		if !ok {
			return false
		}
		switch name {
		case "role": // checked, not kept
			_, ok := d.str()
			return ok
		case "content":
			return d.content(shape)
		}
		return d.skip()
	})
}

// content adds a message's content to shape by messageContent's rules:
// a string counts its text, an array counts its parts, anything else
// counts nothing.
func (d *reqDecoder) content(shape *promptShape) bool {
	switch d.peek() {
	case '"':
		return d.text(&shape.textLen)
	case '[':
		return d.elements(func([]byte) bool {
			if d.peek() == '{' {
				return d.part(shape)
			}
			return d.skip()
		})
	}
	return d.skip()
}

// part adds one content-array object to shape: an "image_url" part is
// an image, a "text" part counts its "text". Both values must be
// strings.
func (d *reqDecoder) part(shape *promptShape) bool {
	var kind []byte
	var textLen int
	ok := d.elements(func(key []byte) bool {
		switch string(key) {
		case "type":
			var ok bool
			kind, ok = d.str()
			return ok
		case "text":
			s, ok := d.str()
			textLen = len(s)
			return ok
		}
		return d.skip()
	})
	switch string(kind) {
	case "image_url":
		shape.images++
	case "text":
		shape.textLen += textLen
	}
	return ok
}

// prompt adds a completions prompt's text to *n by completionInput's
// rules: a string counts, an array counts its string elements,
// anything else counts nothing.
func (d *reqDecoder) prompt(n *int) bool {
	switch d.peek() {
	case '"':
		return d.text(n)
	case '[':
		return d.elements(func([]byte) bool {
			if d.peek() == '"' {
				return d.text(n)
			}
			return d.skip()
		})
	}
	return d.skip()
}
