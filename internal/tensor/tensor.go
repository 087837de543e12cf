// Package tensor provides the dense linear algebra used by the
// training substrate (internal/train): float64 matrices with the
// handful of operations a small supervised-learning pipeline needs.
// It favours clarity over speed; all shapes in this repository are
// tiny (tens to hundreds of rows).
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major float64 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New allocates a zero matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dims %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices (all must share a length).
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("tensor: ragged rows")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// Randn fills a new matrix with N(0, std²) entries from rng.
func Randn(rng *rand.Rand, rows, cols int, std float64) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * std
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (shared storage).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone deep-copies the matrix.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// CopyFrom overwrites m's contents with src's (shapes must match).
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: CopyFrom shape mismatch %dx%d vs %dx%d",
			m.Rows, m.Cols, src.Rows, src.Cols))
	}
	copy(m.Data, src.Data)
}

// MatMul returns a·b.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %dx%d · %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// MatMulT returns a·bᵀ.
func MatMulT(a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulT shape mismatch %dx%d · (%dx%d)ᵀ",
			a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			var s float64
			for k := range arow {
				s += arow[k] * brow[k]
			}
			orow[j] = s
		}
	}
	return out
}

// TMatMul returns aᵀ·b.
func TMatMul(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: TMatMul shape mismatch (%dx%d)ᵀ · %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Cols, b.Cols)
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.Row(i)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// AddInPlace adds b into a (shapes must match).
func AddInPlace(a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("tensor: AddInPlace shape mismatch")
	}
	for i := range a.Data {
		a.Data[i] += b.Data[i]
	}
}

// AXPY performs a += alpha·b.
func AXPY(alpha float64, b, a *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("tensor: AXPY shape mismatch")
	}
	for i := range a.Data {
		a.Data[i] += alpha * b.Data[i]
	}
}

// Scale multiplies every element by alpha, in place.
func (m *Matrix) Scale(alpha float64) {
	for i := range m.Data {
		m.Data[i] *= alpha
	}
}

// Tanh applies tanh elementwise, in place, and returns m.
func (m *Matrix) Tanh() *Matrix {
	for i, v := range m.Data {
		m.Data[i] = math.Tanh(v)
	}
	return m
}

// TanhBackward computes grad * (1 - act²) elementwise into a new
// matrix, where act is the tanh activation output.
func TanhBackward(grad, act *Matrix) *Matrix {
	if grad.Rows != act.Rows || grad.Cols != act.Cols {
		panic("tensor: TanhBackward shape mismatch")
	}
	out := New(grad.Rows, grad.Cols)
	for i := range out.Data {
		out.Data[i] = grad.Data[i] * (1 - act.Data[i]*act.Data[i])
	}
	return out
}
