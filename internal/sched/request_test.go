package sched

import (
	"testing"
	"unsafe"
)

// requestSizeClass is the Go allocator size class Request fits in.
// Million-request traces hold one Request per request, so crossing
// into the next class (160 bytes) costs memory on every request.
const requestSizeClass = 144

// TestRequestSize holds Request at or under its size class. Request
// fills its 144 bytes, so a field added to it (the per-request latency
// parts, say) must pay for the move to the 160-byte class explicitly:
// 16 bytes a request, 16 MB on a million-request trace.
func TestRequestSize(t *testing.T) {
	if got := unsafe.Sizeof(Request{}); got > requestSizeClass {
		t.Fatalf("sched.Request is %d bytes, past the %d-byte size class: per-request fields, the latency decomposition's parts included, must fit %d bytes or pay for the next class on every request",
			got, requestSizeClass, requestSizeClass)
	}
}
