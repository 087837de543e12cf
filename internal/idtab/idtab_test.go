package idtab

import (
	"math/rand"
	"testing"
	"unsafe"
)

// TestTableMatchesMap drives random Set, Get, Delete and Len calls
// against a plain map model, over IDs on both sides of every boundary:
// negative, 0, the last and first IDs around DenseIDs, and one far past
// it. Values include the zero value, whose Set must delete.
func TestTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	edges := []int{-1, -7, 0, 1, 63, 64, 1000, DenseIDs - 1, DenseIDs, DenseIDs + 1, 1 << 40, -(1 << 40)}
	pick := func() int {
		if rng.Intn(2) == 0 {
			return edges[rng.Intn(len(edges))]
		}
		return rng.Intn(3000) - 100
	}
	var tab Table[int]
	model := make(map[int]int)
	for op := 0; op < 200000; op++ {
		id := pick()
		switch rng.Intn(4) {
		case 0, 1:
			v := rng.Intn(4) // a zero v deletes
			tab.Set(id, v)
			if v == 0 {
				delete(model, id)
			} else {
				model[id] = v
			}
		case 2:
			tab.Delete(id)
			delete(model, id)
		}
		if got, want := tab.Get(id), model[id]; got != want {
			t.Fatalf("op %d: Get(%d) = %d, model holds %d", op, id, got, want)
		}
		if tab.Len() != len(model) {
			t.Fatalf("op %d: Len() = %d, model holds %d", op, tab.Len(), len(model))
		}
	}
	for _, id := range edges {
		if got, want := tab.Get(id), model[id]; got != want {
			t.Fatalf("Get(%d) = %d, model holds %d", id, got, want)
		}
	}
}

// TestTableDenseBound sets the largest dense ID on a pointer table:
// the slice stops at DenseIDs entries, 512 KiB, and the next ID up
// goes to the map.
func TestTableDenseBound(t *testing.T) {
	var tab Table[*int]
	v := new(int)
	tab.Set(5, v)
	tab.Set(DenseIDs/2+1, v)
	tab.Set(DenseIDs-1, v)
	tab.Set(DenseIDs, v)
	tab.Set(1<<40, v)
	if got := uintptr(cap(tab.dense)) * unsafe.Sizeof(v); got > 512<<10 {
		t.Fatalf("dense part holds %d bytes, bound is 512 KiB", got)
	}
	if len(tab.sparse) != 2 || tab.Len() != 5 {
		t.Fatalf("%d sparse IDs and %d in all, want 2 and 5", len(tab.sparse), tab.Len())
	}
}
