package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMatMulSmall(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := MatMul(a, b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("c[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MatMul with mismatched shapes should panic")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

// naiveMatMulT computes a·bᵀ directly for cross-checking.
func naiveMatMulT(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(j, k)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func TestTransposedVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := Randn(rng, 7, 5, 1)
	b := Randn(rng, 9, 5, 1)
	got := MatMulT(a, b)
	want := naiveMatMulT(a, b)
	for i := range got.Data {
		if !almostEqual(got.Data[i], want.Data[i], 1e-9) {
			t.Fatalf("MatMulT mismatch at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}

	// TMatMul(a, c) == aᵀ·c; verify via MatMul on an explicit
	// transpose.
	c := Randn(rng, 7, 4, 1)
	at := New(a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	got2 := TMatMul(a, c)
	want2 := MatMul(at, c)
	for i := range got2.Data {
		if !almostEqual(got2.Data[i], want2.Data[i], 1e-9) {
			t.Fatal("TMatMul disagrees with explicit transpose")
		}
	}
}

func TestMatMulAssociativityWithIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Randn(rng, 4, 6, 1)
		id := New(6, 6)
		for i := 0; i < 6; i++ {
			id.Set(i, i, 1)
		}
		c := MatMul(a, id)
		for i := range a.Data {
			if !almostEqual(a.Data[i], c.Data[i], 1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneAndCopyFrom(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("clone must not share storage")
	}
	a.CopyFrom(b)
	if a.At(0, 0) != 99 {
		t.Fatal("CopyFrom failed")
	}
}

func TestAddAXPYScale(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{10, 20}})
	AddInPlace(a, b)
	if a.At(0, 0) != 11 || a.At(0, 1) != 22 {
		t.Fatalf("AddInPlace wrong: %v", a.Data)
	}
	AXPY(0.5, b, a)
	if a.At(0, 0) != 16 || a.At(0, 1) != 32 {
		t.Fatalf("AXPY wrong: %v", a.Data)
	}
	a.Scale(2)
	if a.At(0, 0) != 32 {
		t.Fatalf("Scale wrong: %v", a.Data)
	}
}

func TestTanhBackwardNumericalGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	z := Randn(rng, 3, 3, 0.5)
	act := z.Clone().Tanh()
	grad := New(3, 3)
	for i := range grad.Data {
		grad.Data[i] = 1
	}
	analytic := TanhBackward(grad, act)

	const eps = 1e-6
	for i := range z.Data {
		zp := z.Clone()
		zp.Data[i] += eps
		zm := z.Clone()
		zm.Data[i] -= eps
		numeric := (math.Tanh(zp.Data[i]) - math.Tanh(zm.Data[i])) / (2 * eps)
		if !almostEqual(analytic.Data[i], numeric, 1e-6) {
			t.Fatalf("tanh gradient mismatch at %d: %v vs %v", i, analytic.Data[i], numeric)
		}
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged rows should panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestRandnDeterministic(t *testing.T) {
	a := Randn(rand.New(rand.NewSource(5)), 3, 3, 1)
	b := Randn(rand.New(rand.NewSource(5)), 3, 3, 1)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("same seed must give identical matrices")
		}
	}
}
