package serving

import (
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"
)

// JSON append primitives for the OpenAI wire format. Responses are
// encoded field by field into one pooled buffer instead of through
// encoding/json's reflection, and each primitive writes what
// encoding/json would write for the same value, so a decoder cannot
// tell the two apart.

// maxPooledWireBuf is the largest buffer wireBufs keeps. A buffer a
// long stream or a large request body grew past it is left to the
// collector, so one 4,096-token stream or one 8 MiB body cannot pin
// its megabytes in the pool.
const maxPooledWireBuf = 64 << 10

// wireBufs holds the buffers the OpenAI handlers read request bodies
// into and encode responses in.
var wireBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 4<<10)
	return &b
}}

// getWireBuf takes an empty buffer from the pool.
func getWireBuf() *[]byte {
	p := wireBufs.Get().(*[]byte)
	*p = (*p)[:0]
	return p
}

// putWireBuf returns a buffer to the pool unless it outgrew the cap.
func putWireBuf(p *[]byte) {
	if cap(*p) <= maxPooledWireBuf {
		wireBufs.Put(p)
	}
}

// Header values shared by every OpenAI response. The handlers assign
// them to the header map instead of calling Header().Set, which makes
// a fresh one-element slice per call. Each slice's length equals its
// capacity, so an Add on a response's header appends to a copy and
// never writes into the shared array.
var (
	jsonContentType = []string{"application/json"}
	sseContentType  = []string{"text/event-stream"}
	noCacheControl  = []string{"no-cache"}
)

// writeJSONBody sends a complete JSON response in one write.
func writeJSONBody(w http.ResponseWriter, status int, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string, escaped as encoding/json
// escapes it: quote, backslash and control characters, the
// HTML-significant <, > and &, U+2028 and U+2029, and each byte of
// invalid UTF-8 as U+FFFD.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendFloat appends a finite f in encoding/json's float64 format:
// the shortest representation that round-trips, in exponent form
// only below 1e-6 or from 1e21 up.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9, as encoding/json does.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendMS appends a virtual duration in milliseconds.
func appendMS(b []byte, d time.Duration) []byte {
	return appendFloat(b, float64(d)/float64(time.Millisecond))
}

// appendInt appends an integer field value.
func appendInt(b []byte, n int64) []byte { return strconv.AppendInt(b, n, 10) }
