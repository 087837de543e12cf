package workload

import "valora/internal/sched"

// reqBlockLen is how many requests one reqAlloc block holds: 4096
// 144-byte requests, 576 KiB a block.
const reqBlockLen = 4096

// reqAlloc hands out a generated trace's requests from fixed-size
// blocks, so a million-request trace is 245 heap objects instead of a
// million. A block stays live while any of its requests is reachable;
// a replay holds its trace whole, so a trace's requests are freed
// together either way. Each generator call uses its own reqAlloc, so
// two traces never share a block.
type reqAlloc struct {
	block []sched.Request
}

// alloc returns a pointer to the next free slot, set to r.
func (a *reqAlloc) alloc(r sched.Request) *sched.Request {
	if len(a.block) == 0 {
		a.block = make([]sched.Request, reqBlockLen)
	}
	p := &a.block[0]
	a.block = a.block[1:]
	*p = r
	return p
}
