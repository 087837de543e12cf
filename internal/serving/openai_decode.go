package serving

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// The completion endpoints' request decoder: one forward scan over the
// body that fills an openAIRequest and counts the prompt's text and
// images as it goes. It accepts exactly the bodies that
//
//	json.NewDecoder(bytes.NewReader(data)).Decode(&openAIRequest{})
//
// accepts and produces the same values (FuzzOpenAIRequest checks
// both). That means: the first JSON value is decoded and any bytes
// after it are ignored; object keys match struct fields exactly, else
// under Unicode case folding; the last duplicate wins; null leaves a
// field as it was (adapter_id becomes nil, messages empty); ints are
// literals strconv.ParseInt takes and deadline_ms one ParseFloat
// takes; members the struct does not name are only syntax-checked,
// while every number inside a content or prompt value must parse as a
// float64, as decoding it untyped requires; and nesting past 10,000
// containers is an error. The scan keeps an explicit container stack,
// so it never recurses on the input's nesting.

// maxNestingDepth is encoding/json's bound on open containers.
const maxNestingDepth = 10000

// errBadBody is the scan's rejection. The handler answers it with
// encoding/json's error for the same bytes (decodeError).
var errBadBody = errors.New("malformed request body")

// errBodyTooLarge is readBody's report of a body past its limit.
var errBodyTooLarge = errors.New("request body too large")

// Struct fields of openAIRequest and openAIMessage, by JSON name.
const (
	fieldModel = iota
	fieldMessages
	fieldPrompt
	fieldMaxTokens
	fieldMaxCompletionTokens
	fieldStream
	fieldUser
	fieldAdapterID
	fieldInputTokens
	fieldOutputTokens
	fieldImages
	fieldSystem
	fieldDeadlineMS
)

var requestFields = []string{
	fieldModel:               "model",
	fieldMessages:            "messages",
	fieldPrompt:              "prompt",
	fieldMaxTokens:           "max_tokens",
	fieldMaxCompletionTokens: "max_completion_tokens",
	fieldStream:              "stream",
	fieldUser:                "user",
	fieldAdapterID:           "adapter_id",
	fieldInputTokens:         "input_tokens",
	fieldOutputTokens:        "output_tokens",
	fieldImages:              "images",
	fieldSystem:              "system",
	fieldDeadlineMS:          "deadline_ms",
}

const (
	fieldRole = iota
	fieldContent
)

var messageFields = []string{fieldRole: "role", fieldContent: "content"}

// decodeOpenAIRequest decodes a completion request body into body.
// Only the strings the request keeps (model, user, system) are
// allocated, and nothing in body aliases data.
func decodeOpenAIRequest(data []byte, body *openAIRequest) error {
	*body = openAIRequest{}
	d := reqDecoder{data: data}
	d.skipSpace()
	switch d.peek() {
	case '{':
		return d.request(body)
	case 'n':
		return d.literal("null") // a zero request
	}
	return errBadBody
}

// decodeError is the error a body the scan rejected is answered with:
// the one encoding/json gives for the same bytes.
func decodeError(data []byte) error {
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(new(openAIRequest)); err != nil {
		return err
	}
	return errBadBody // unreachable while the two agree
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
// called with off at the value's first byte and returns with off just
// past it.
type reqDecoder struct {
	data  []byte
	off   int
	depth int // containers open at off
	// objects has bit i set when the container at depth i is an
	// object: next reads it to know which byte closes the container.
	objects [maxNestingDepth/64 + 1]uint64

	// firstMessages is the offset of the first "messages" value, 0
	// before one is seen; perMessage is set once a body repeats the
	// key (see messages).
	firstMessages int
	perMessage    bool
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

// open consumes the opening bracket or brace of a container.
func (d *reqDecoder) open() error {
	d.off++
	d.depth++
	if d.depth > maxNestingDepth {
		return errBadBody
	}
	bit := uint64(1) << (d.depth & 63)
	if d.data[d.off-1] == '{' {
		d.objects[d.depth>>6] |= bit
	} else {
		d.objects[d.depth>>6] &^= bit
	}
	return nil
}

// next moves to the next element of the container open at d.depth.
// For an object it also consumes the element's key and colon and
// returns the key as scanned (see str). ok is false once the close is
// consumed. first is set on the call after open.
func (d *reqDecoder) next(first bool) (key []byte, plain, ok bool, err error) {
	object := d.objects[d.depth>>6]&(1<<(d.depth&63)) != 0
	end := byte(']')
	if object {
		end = '}'
	}
	d.skipSpace()
	switch c := d.peek(); {
	case c == end:
		d.off++
		d.depth--
		return nil, false, false, nil
	case !first:
		if c != ',' {
			return nil, false, false, errBadBody
		}
		d.off++
		d.skipSpace()
	}
	if !object {
		return nil, false, true, nil
	}
	if d.peek() != '"' {
		return nil, false, false, errBadBody
	}
	if key, plain, err = d.str(); err != nil {
		return nil, false, false, err
	}
	d.skipSpace()
	if d.peek() != ':' {
		return nil, false, false, errBadBody
	}
	d.off++
	d.skipSpace()
	return key, plain, true, nil
}

// literal consumes the literal word, which must come next.
func (d *reqDecoder) literal(word string) error {
	if len(d.data)-d.off < len(word) || string(d.data[d.off:d.off+len(word)]) != word {
		return errBadBody
	}
	d.off += len(word)
	return nil
}

// str scans a string literal and returns its contents between the
// quotes, still escaped. plain reports printable ASCII without
// escapes, which decodes to itself.
func (d *reqDecoder) str() (s []byte, plain bool, err error) {
	data := d.data
	start := d.off + 1
	plain = true
	for i := start; i < len(data); {
		c := data[i]
		if c >= 0x20 && c < utf8.RuneSelf && c != '"' && c != '\\' {
			i++
			continue
		}
		switch {
		case c == '"':
			d.off = i + 1
			return data[start:i], plain, nil
		case c == '\\':
			plain = false
			if i+1 >= len(data) {
				return nil, false, errBadBody
			}
			switch data[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				if i+6 > len(data) || !isHex4(data[i+2:i+6]) {
					return nil, false, errBadBody
				}
				i += 6
			default:
				return nil, false, errBadBody
			}
		case c < 0x20:
			return nil, false, errBadBody
		default: // non-ASCII, checked when decoded
			plain = false
			i++
		}
	}
	return nil, false, errBadBody
}

func isHex4(b []byte) bool {
	for _, c := range b {
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F') {
			return false
		}
	}
	return true
}

// number scans a number literal and returns it.
func (d *reqDecoder) number() ([]byte, error) {
	data, i := d.data, d.off
	digits := func() bool {
		start := i
		for i < len(data) && '0' <= data[i] && data[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(data) && data[i] == '-' {
		i++
	}
	if i < len(data) && data[i] == '0' {
		i++
	} else if !digits() {
		return nil, errBadBody
	}
	if i < len(data) && data[i] == '.' {
		i++
		if !digits() {
			return nil, errBadBody
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if !digits() {
			return nil, errBadBody
		}
	}
	lit := data[d.off:i]
	d.off = i
	return lit, nil
}

// float64Literal scans a number that must parse as a float64.
func (d *reqDecoder) float64Literal() (float64, error) {
	lit, err := d.number()
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return 0, errBadBody
	}
	return f, nil
}

// skip scans one value of any shape. With numbers set, every number
// in it must parse as a float64, as decoding it untyped requires.
func (d *reqDecoder) skip(numbers bool) error {
	base := d.depth
	for {
		opened := false
		switch c := d.peek(); {
		case c == '{' || c == '[':
			if err := d.open(); err != nil {
				return err
			}
			opened = true
		case c == '"':
			if _, _, err := d.str(); err != nil {
				return err
			}
		case c == 't':
			if err := d.literal("true"); err != nil {
				return err
			}
		case c == 'f':
			if err := d.literal("false"); err != nil {
				return err
			}
		case c == 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
		case c == '-' || '0' <= c && c <= '9':
			var err error
			if numbers {
				_, err = d.float64Literal()
			} else {
				_, err = d.number()
			}
			if err != nil {
				return err
			}
		default:
			return errBadBody
		}
		// Step to the next value, closing every container that ends
		// before it.
		for first := opened; d.depth > base; first = false {
			_, _, ok, err := d.next(first)
			if err != nil {
				return err
			}
			if ok {
				break
			}
		}
		if d.depth == base {
			return nil
		}
	}
}

// appendUnquoted appends the decoded contents s of a scanned string
// literal to b, as encoding/json decodes them: escapes resolved, a
// \u surrogate pair joined, and a lone surrogate and each byte of
// invalid UTF-8 replaced by U+FFFD.
func appendUnquoted(b, s []byte) []byte {
	for i := 0; i < len(s); {
		switch c := s[i]; {
		case c == '\\':
			r, n := unescape(s[i:])
			b = utf8.AppendRune(b, r)
			i += n
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, n := utf8.DecodeRune(s[i:])
			b = utf8.AppendRune(b, r)
			i += n
		}
	}
	return b
}

// unquotedLen is the length of appendUnquoted's output for s.
func unquotedLen(s []byte, plain bool) int {
	if plain {
		return len(s)
	}
	n := 0
	for i := 0; i < len(s); {
		switch c := s[i]; {
		case c == '\\':
			r, size := unescape(s[i:])
			n += utf8.RuneLen(r)
			i += size
		case c < utf8.RuneSelf:
			n++
			i++
		default:
			r, size := utf8.DecodeRune(s[i:])
			n += utf8.RuneLen(r)
			i += size
		}
	}
	return n
}

// unescape decodes the escape sequence that starts s, which str has
// validated, and returns its rune and length.
func unescape(s []byte) (rune, int) {
	switch s[1] {
	case 'b':
		return '\b', 2
	case 'f':
		return '\f', 2
	case 'n':
		return '\n', 2
	case 'r':
		return '\r', 2
	case 't':
		return '\t', 2
	case 'u':
		r := hex4(s[2:6])
		if !utf16.IsSurrogate(r) {
			return r, 6
		}
		if len(s) >= 12 && s[6] == '\\' && s[7] == 'u' {
			if pair := utf16.DecodeRune(r, hex4(s[8:12])); pair != unicode.ReplacementChar {
				return pair, 12
			}
		}
		return unicode.ReplacementChar, 6
	}
	return rune(s[1]), 2 // quote, backslash or slash
}

func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c <= 'F':
			c -= 'A' - 10
		default:
			c -= 'a' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// unquote returns the decoded contents of a scanned string literal as
// a new string.
func unquote(s []byte, plain bool) string {
	if plain || bytes.IndexByte(s, '\\') < 0 && utf8.Valid(s) {
		return string(s)
	}
	return string(appendUnquoted(make([]byte, 0, len(s)), s))
}

// unquotedIs reports whether a scanned string literal decodes to want,
// which is at most 16 bytes long.
func unquotedIs(s []byte, plain bool, want string) bool {
	if plain {
		return string(s) == want
	}
	if unquotedLen(s, false) != len(want) {
		return false
	}
	var buf [16]byte
	return string(appendUnquoted(buf[:0], s)) == want
}

// field returns the index in names of the struct field a scanned key
// selects, matched as encoding/json matches it: exactly, else under
// Unicode case folding. It returns -1 for no field.
func field(key []byte, plain bool, names []string) int {
	// A name is at most 21 ASCII bytes, and a rune that folds to an
	// ASCII letter is at most 3 bytes long, so a longer key names
	// nothing.
	var buf [64]byte
	if !plain {
		if unquotedLen(key, false) > len(buf) {
			return -1
		}
		key = appendUnquoted(buf[:0], key)
	}
	for i, name := range names {
		if string(key) == name {
			return i
		}
	}
	for i, name := range names {
		if strings.EqualFold(string(key), name) {
			return i
		}
	}
	return -1
}

// request decodes the top-level object into body.
func (d *reqDecoder) request(body *openAIRequest) error {
	if err := d.open(); err != nil {
		return err
	}
	for first := true; ; first = false {
		key, plain, ok, err := d.next(first)
		if err != nil || !ok {
			return err
		}
		switch field(key, plain, requestFields) {
		case fieldModel:
			err = d.stringField(&body.Model)
		case fieldMessages:
			err = d.messages(body)
		case fieldPrompt:
			body.Prompt.textLen, err = d.prompt()
		case fieldMaxTokens:
			err = d.intField(&body.MaxTokens)
		case fieldMaxCompletionTokens:
			err = d.intField(&body.MaxCompletionTokens)
		case fieldStream:
			err = d.boolField(&body.Stream)
		case fieldUser:
			err = d.stringField(&body.User)
		case fieldAdapterID:
			err = d.adapterField(&body.AdapterID)
		case fieldInputTokens:
			err = d.intField(&body.InputTokens)
		case fieldOutputTokens:
			err = d.intField(&body.OutputTokens)
		case fieldImages:
			err = d.intField(&body.Images)
		case fieldSystem:
			err = d.stringField(&body.System)
		case fieldDeadlineMS:
			err = d.floatField(&body.DeadlineMS)
		default:
			err = d.skip(false)
		}
		if err != nil {
			return err
		}
	}
}

// stringField decodes a string or null; null leaves *dst as it was.
func (d *reqDecoder) stringField(dst *string) error {
	switch d.peek() {
	case '"':
		s, plain, err := d.str()
		if err == nil {
			*dst = unquote(s, plain)
		}
		return err
	case 'n':
		return d.literal("null")
	}
	return errBadBody
}

// intLiteral scans a number that must parse as an int64.
func (d *reqDecoder) intLiteral() (int, error) {
	lit, err := d.number()
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(string(lit), 10, 64)
	if err != nil {
		return 0, errBadBody
	}
	return int(n), nil
}

// intField decodes an integer or null; null leaves *dst as it was.
func (d *reqDecoder) intField(dst *int) error {
	switch c := d.peek(); {
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		n, err := d.intLiteral()
		if err == nil {
			*dst = n
		}
		return err
	}
	return errBadBody
}

// floatField decodes a number or null; null leaves *dst as it was.
func (d *reqDecoder) floatField(dst *float64) error {
	switch c := d.peek(); {
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		f, err := d.float64Literal()
		if err == nil {
			*dst = f
		}
		return err
	}
	return errBadBody
}

// boolField decodes true, false or null; null leaves *dst as it was.
func (d *reqDecoder) boolField(dst *bool) error {
	switch d.peek() {
	case 't':
		*dst = true
		return d.literal("true")
	case 'f':
		*dst = false
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	return errBadBody
}

// adapterField decodes adapter_id: null sets *dst nil, an integer
// stores through it, allocating it if nil.
func (d *reqDecoder) adapterField(dst **int) error {
	switch c := d.peek(); {
	case c == 'n':
		*dst = nil
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		n, err := d.intLiteral()
		if err != nil {
			return err
		}
		if *dst == nil {
			*dst = new(int)
		}
		**dst = n
		return nil
	}
	return errBadBody
}

// messages decodes one "messages" value. encoding/json decodes a
// repeated array in place: element i of a later array updates element
// i of the slice, a shorter array truncates it, and a longer one
// within capacity uncovers the elements that truncation hid. The scan
// keeps no per-message state for the first value: a fresh slice holds
// only zero messages, so the content of each adds straight to
// body.chatShape. The first repeat replays that value into
// body.Messages, growing it as reflect does, and from then on every
// value updates the slice.
func (d *reqDecoder) messages(body *openAIRequest) error {
	if d.firstMessages == 0 {
		d.firstMessages = d.off
	} else if !d.perMessage {
		d.perMessage = true
		body.chatShape = promptShape{}
		at := d.off
		d.off = d.firstMessages
		if err := d.messagesValue(body); err != nil {
			return err // cannot happen: the value scanned once already
		}
		d.off = at
	}
	return d.messagesValue(body)
}

func (d *reqDecoder) messagesValue(body *openAIRequest) error {
	switch d.peek() {
	case 'n':
		body.Messages, body.chatShape = nil, promptShape{}
		return d.literal("null")
	case '[':
	default:
		return errBadBody
	}
	if err := d.open(); err != nil {
		return err
	}
	msgs := body.Messages
	i := 0
	for first := true; ; first = false {
		_, _, ok, err := d.next(first)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if d.perMessage {
			if i >= cap(msgs) {
				msgs = slices.Grow(msgs, 1)
			}
			if i >= len(msgs) {
				msgs = msgs[:i+1]
			}
		}
		switch d.peek() {
		case 'n': // leaves the message as it was
			err = d.literal("null")
		case '{':
			var content promptShape
			var ok bool
			if content, ok, err = d.message(); ok && err == nil {
				if d.perMessage {
					msgs[i].Content.promptShape = content
				} else {
					body.chatShape.textLen += content.textLen
					body.chatShape.images += content.images
				}
			}
		default:
			err = errBadBody
		}
		if err != nil {
			return err
		}
		i++
	}
	if d.perMessage {
		switch {
		case i == 0:
			msgs = []openAIMessage{}
		case i < len(msgs):
			msgs = msgs[:i]
		}
		body.Messages = msgs
	}
	return nil
}

// message decodes one chat message object and returns its content's
// shape; hasContent is false when it names no content.
func (d *reqDecoder) message() (content promptShape, hasContent bool, err error) {
	if err := d.open(); err != nil {
		return content, false, err
	}
	for first := true; ; first = false {
		key, plain, ok, err := d.next(first)
		if err != nil || !ok {
			return content, hasContent, err
		}
		switch field(key, plain, messageFields) {
		case fieldRole: // checked, not kept
			err = d.checkString()
		case fieldContent:
			content, err = d.content()
			hasContent = true
		default:
			err = d.skip(false)
		}
		if err != nil {
			return content, false, err
		}
	}
}

// checkString checks a string or null value.
func (d *reqDecoder) checkString() error {
	switch d.peek() {
	case '"':
		_, _, err := d.str()
		return err
	case 'n':
		return d.literal("null")
	}
	return errBadBody
}

// content decodes a message's content by messageContent's rules: a
// string counts its text, an array counts its parts, anything else
// counts nothing.
func (d *reqDecoder) content() (promptShape, error) {
	var shape promptShape
	switch d.peek() {
	case '"':
		s, plain, err := d.str()
		shape.textLen = unquotedLen(s, plain)
		return shape, err
	case '[':
	default:
		return shape, d.skip(true)
	}
	if err := d.open(); err != nil {
		return shape, err
	}
	for first := true; ; first = false {
		_, _, ok, err := d.next(first)
		if err != nil || !ok {
			return shape, err
		}
		if d.peek() == '{' {
			err = d.part(&shape)
		} else {
			err = d.skip(true)
		}
		if err != nil {
			return shape, err
		}
	}
}

// Part kinds, by the last "type" member of a content part.
const (
	partOther = iota
	partText
	partImage
)

// part adds one content-array object to shape: an "image_url" part is
// an image, a "text" part counts its string "text". Keys match exactly
// and the last duplicate wins, as in a decoded map.
func (d *reqDecoder) part(shape *promptShape) error {
	if err := d.open(); err != nil {
		return err
	}
	kind, textLen := partOther, -1 // textLen: -1 unless "text" is a string
	for first := true; ; first = false {
		key, plain, ok, err := d.next(first)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		isType := unquotedIs(key, plain, "type")
		if !isType && !unquotedIs(key, plain, "text") {
			if err := d.skip(true); err != nil {
				return err
			}
			continue
		}
		if d.peek() != '"' {
			if isType {
				kind = partOther
			} else {
				textLen = -1
			}
			if err := d.skip(true); err != nil {
				return err
			}
			continue
		}
		s, plain, err := d.str()
		if err != nil {
			return err
		}
		switch {
		case !isType:
			textLen = unquotedLen(s, plain)
		case unquotedIs(s, plain, "text"):
			kind = partText
		case unquotedIs(s, plain, "image_url"):
			kind = partImage
		default:
			kind = partOther
		}
	}
	switch {
	case kind == partImage:
		shape.images++
	case kind == partText && textLen >= 0:
		shape.textLen += textLen
	}
	return nil
}

// prompt decodes a completions prompt by completionInput's rules and
// returns its text length: a string counts, an array counts its
// string elements, anything else counts nothing.
func (d *reqDecoder) prompt() (int, error) {
	switch d.peek() {
	case '"':
		s, plain, err := d.str()
		return unquotedLen(s, plain), err
	case '[':
	default:
		return 0, d.skip(true)
	}
	if err := d.open(); err != nil {
		return 0, err
	}
	n := 0
	for first := true; ; first = false {
		_, _, ok, err := d.next(first)
		if err != nil || !ok {
			return n, err
		}
		if d.peek() == '"' {
			s, plain, err := d.str()
			if err != nil {
				return n, err
			}
			n += unquotedLen(s, plain)
		} else if err := d.skip(true); err != nil {
			return n, err
		}
	}
}
