// Package hotpathtest is the golden fixture for the hotpath
// analyzer: //valora:hotpath functions must not allocate.
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
	f := func() int { return len(r.buf) } // want "closure literal in hotpath closureAlloc"
	return f
}

//valora:hotpath
func (r *ring) sprintf(id int) string {
	return fmt.Sprintf("adapter-%d", id) // want "fmt.Sprintf in hotpath sprintf allocates"
}

//valora:hotpath
func mapLit() map[int]int {
	return map[int]int{} // want "map literal in hotpath mapLit allocates"
}

//valora:hotpath
func makeMap() map[int]int {
	return make(map[int]int) // want "make.map. in hotpath makeMap allocates"
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
	x = v // want "assignment boxes a concrete value into an interface in hotpath boxAssign"
	return x
}

func consume(v any) { _ = v }

//valora:hotpath
func boxArg(v int) {
	consume(v) // want "argument boxes into interface parameter in hotpath boxArg"
}

//valora:hotpath
func boxConv(v int) any {
	return any(v) // want "conversion to interface in hotpath boxConv boxes its operand"
}

// coldSprintf is clean: without the annotation the function may
// allocate freely.
func coldSprintf(id int) string {
	return fmt.Sprintf("adapter-%d", id)
}

//valora:hotpath
func suppressedCold(fail bool) error {
	if fail {
		//valora:allow hotpath -- cold failure path: never taken at steady state
		return fmt.Errorf("failed")
	}
	return nil
}

type capErr struct{}

func (*capErr) Error() string { return "capacity" }

// escapedLocal passes &ce to errors.As's interface parameter: ce moves
// to the heap on every call, even though errors.As only runs on the
// cold branch, so the allow on the call's line does not cover the
// declaration.
//
//valora:hotpath
func escapedLocal(err error) bool {
	var ce *capErr // want "local ce moves to the heap on every call of hotpath escapedLocal"
	if err == nil {
		return false
	}
	//valora:allow hotpath -- cold path: only a failed call reaches it
	return errors.As(err, &ce)
}
