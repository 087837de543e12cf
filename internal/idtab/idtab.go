// Package idtab is the ID-keyed table the adapter path shares: a slice
// indexed by ID for the IDs every experiment uses, and a map for the
// rest (negative IDs, and the large ones a client may send over HTTP).
package idtab

// DenseIDs bounds the directly indexed IDs: 0 ≤ id < DenseIDs lives in
// the slice, every other ID in the map. With values of at most 8 bytes
// (a pointer, an int) the slice never passes 512 KiB, whatever ID a
// client sends.
const DenseIDs = 1 << 16

// Table maps int IDs to values. The zero value of T means absent:
// Get reports it for an unset ID, and Set with it deletes. The zero
// Table is empty and ready to use.
type Table[T comparable] struct {
	dense  []T
	sparse map[int]T
	n      int
}

// Get reports id's value, or the zero value when id is absent.
func (t *Table[T]) Get(id int) T {
	if uint(id) < uint(len(t.dense)) {
		return t.dense[id]
	}
	if uint(id) < DenseIDs {
		var zero T
		return zero
	}
	return t.sparse[id]
}

// Set stores v under id; a zero v deletes id.
func (t *Table[T]) Set(id int, v T) {
	var zero T
	if v == zero {
		t.Delete(id)
		return
	}
	if uint(id) < DenseIDs {
		if id >= len(t.dense) {
			t.grow(id)
		}
		if t.dense[id] == zero {
			t.n++
		}
		t.dense[id] = v
		return
	}
	if t.sparse == nil {
		t.sparse = make(map[int]T)
	}
	if _, ok := t.sparse[id]; !ok {
		t.n++
	}
	t.sparse[id] = v
}

// grow extends the slice to cover id (len(t.dense) ≤ id < DenseIDs),
// at least doubling its capacity but never past DenseIDs.
func (t *Table[T]) grow(id int) {
	if id < cap(t.dense) {
		// The retained capacity was never inside the slice, so it
		// still holds zeros.
		t.dense = t.dense[:id+1]
		return
	}
	c := min(max(id+1, 2*cap(t.dense)), DenseIDs)
	d := make([]T, id+1, c)
	copy(d, t.dense)
	t.dense = d
}

// Delete removes id; deleting an absent ID is a no-op.
func (t *Table[T]) Delete(id int) {
	var zero T
	if uint(id) < uint(len(t.dense)) {
		if t.dense[id] != zero {
			t.dense[id] = zero
			t.n--
		}
		return
	}
	if uint(id) < DenseIDs {
		return
	}
	if _, ok := t.sparse[id]; ok {
		delete(t.sparse, id)
		t.n--
	}
}

// Len reports how many IDs are present.
func (t *Table[T]) Len() int { return t.n }
