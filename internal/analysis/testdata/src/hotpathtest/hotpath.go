// Package hotpathtest is the golden fixture for the hotpath
// analyzer: //valora:hotpath functions must not allocate. Most wants
// are the compiler's own escape reports (go build -gcflags=-m).
package hotpathtest

import (
	"errors"
	"fmt"
)

type ring struct {
	buf []int
}

//valora:hotpath
func (r *ring) closureAlloc() func() int {
	f := func() int { return len(r.buf) } // want "func literal escapes to heap in hotpath closureAlloc"
	return f
}

//valora:hotpath
func (r *ring) sprintf(id int) string {
	return fmt.Sprintf("adapter-%d", id) // want "fmt.Sprintf in hotpath sprintf allocates" // want "id escapes to heap in hotpath sprintf"
}

//valora:hotpath
func mapLit() map[int]int {
	return map[int]int{} // want "map\[int\]int\{\} escapes to heap in hotpath mapLit"
}

//valora:hotpath
func makeMap() map[int]int {
	return make(map[int]int) // want "make\(map\[int\]int\) escapes to heap in hotpath makeMap"
}

//valora:hotpath
func freshAppend(n int) int {
	var tmp []int
	for i := 0; i < n; i++ {
		tmp = append(tmp, i) // want "append to fresh local slice tmp in hotpath freshAppend"
	}
	return len(tmp)
}

// scratchAppend is clean: reslicing a field reuses its backing array,
// so the appends stay in place at steady state.
//
//valora:hotpath
func (r *ring) scratchAppend(n int) int {
	buf := r.buf[:0]
	for i := 0; i < n; i++ {
		buf = append(buf, i)
	}
	r.buf = buf
	return len(buf)
}

//valora:hotpath
func boxAssign(v int) any {
	var x any
	x = v // want "v escapes to heap in hotpath boxAssign"
	return x
}

func consume(v any) { _ = v }

// boxArg is clean: the call to consume is inlined and v does not
// escape, so converting it to the interface parameter allocates
// nothing.
//
//valora:hotpath
func boxArg(v int) {
	consume(v)
}

//valora:hotpath
func boxConv(v int) any {
	return any(v) // want "any\(v\) escapes to heap in hotpath boxConv"
}

var retained []any

func retain(v any) { retained = append(retained, v) }

// boxRetained passes v to a parameter its callee keeps, so the boxed
// copy outlives the call.
//
//valora:hotpath
func boxRetained(v int) {
	retain(v) // want "v escapes to heap in hotpath boxRetained"
}

type entry struct{ id int }

// newEntry returns a fresh &T{}: the class of the pool entry a
// swap-in used to allocate.
//
//valora:hotpath
func newEntry(id int) *entry {
	return &entry{id: id} // want "&entry\{\.\.\.\} escapes to heap in hotpath newEntry"
}

// coldSprintf is clean: without the annotation the function may
// allocate freely.
func coldSprintf(id int) string {
	return fmt.Sprintf("adapter-%d", id)
}

// suppressedCold is clean: one allow covers both the fmt rule and the
// compiler's report of n's boxing on its line.
//
//valora:hotpath
func suppressedCold(fail bool, n int) error {
	if fail {
		//valora:allow hotpath -- cold failure path: never taken at steady state
		return fmt.Errorf("failed after %d", n)
	}
	return nil
}

type capErr struct{}

func (*capErr) Error() string { return "capacity" }

// escapedLocal passes &ce to errors.As's interface parameter: ce moves
// to the heap on every call, even though errors.As only runs on the
// cold branch, and the compiler reports it at the declaration.
//
//valora:hotpath
func escapedLocal(err error) bool {
	var ce *capErr // want "moved to heap: ce in hotpath escapedLocal"
	if err == nil {
		return false
	}
	return errors.As(err, &ce)
}
