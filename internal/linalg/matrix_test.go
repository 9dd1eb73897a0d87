package linalg

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"mpmc/internal/xrand"
)

func approxEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	if m.At(0, 0) != 1 || m.At(1, 2) != 5 || m.At(0, 1) != 0 {
		t.Fatal("Set/At mismatch")
	}
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatal("dimension mismatch")
	}
}

func TestMatrixFromRowsAndClone(t *testing.T) {
	m := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone aliases original data")
	}
	r := m.Row(1)
	r[0] = 77
	if m.At(1, 0) != 3 {
		t.Fatal("Row aliases original data")
	}
}

func TestRaggedRowsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	NewMatrixFromRows([][]float64{{1, 2}, {3}})
}

func TestTranspose(t *testing.T) {
	m := NewMatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatal("transpose dims")
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose value (%d,%d)", i, j)
			}
		}
	}
}

func TestMulIdentity(t *testing.T) {
	m := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	got := m.Mul(Identity(2))
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			if got.At(i, j) != m.At(i, j) {
				t.Fatal("M·I != M")
			}
		}
	}
}

func TestMulKnown(t *testing.T) {
	a := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}})
	b := NewMatrixFromRows([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("mul (%d,%d): got %v want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMulVec(t *testing.T) {
	a := NewMatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got := a.MulVec([]float64{1, 1, 1})
	if got[0] != 6 || got[1] != 15 {
		t.Fatalf("MulVec got %v", got)
	}
}

func TestSolveLUKnown(t *testing.T) {
	a := NewMatrixFromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	x, err := SolveLU(a, []float64{8, -11, -3})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if !approxEq(x[i], want[i], 1e-10) {
			t.Fatalf("x[%d]=%v want %v", i, x[i], want[i])
		}
	}
}

func TestSolveLUNeedsPivoting(t *testing.T) {
	// Zero on the leading diagonal forces a row swap.
	a := NewMatrixFromRows([][]float64{
		{0, 1},
		{1, 0},
	})
	x, err := SolveLU(a, []float64{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(x[0], 7, 1e-12) || !approxEq(x[1], 3, 1e-12) {
		t.Fatalf("got %v", x)
	}
}

func TestSolveLUSingular(t *testing.T) {
	a := NewMatrixFromRows([][]float64{
		{1, 2},
		{2, 4},
	})
	if _, err := SolveLU(a, []float64{1, 2}); err == nil {
		t.Fatal("expected ErrSingular")
	}
}

func TestSolveLURandomProperty(t *testing.T) {
	// A·x recovered by SolveLU matches the planted x for random
	// well-conditioned systems.
	r := xrand.New(101)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(8)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, r.Float64()*2-1)
			}
			// Diagonal dominance keeps the system well conditioned.
			a.Set(i, i, a.At(i, i)+float64(n))
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = r.Float64()*10 - 5
		}
		b := a.MulVec(want)
		got, err := SolveLU(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range want {
			if !approxEq(got[i], want[i], 1e-8) {
				t.Fatalf("trial %d: x[%d]=%v want %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestSolveLUInPlace(t *testing.T) {
	// The in-place entry point overwrites b with the solution SolveLU
	// returns, bit for bit; SolveLU's own contract (A and b untouched) is
	// the copying wrapper's.
	a, b := NewMatrixFromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	}), []float64{8, -11, -3}
	want, err := SolveLU(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if a.At(1, 0) != -3 || b[0] != 8 {
		t.Fatalf("SolveLU modified its arguments: a=%v b=%v", a, b)
	}
	x := append([]float64(nil), b...)
	if err := SolveLUInPlace([]float64{2, 1, -1, -3, -1, 2, -2, 1, 2}, x); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("x[%d] = %v, SolveLU gave %v", i, x[i], want[i])
		}
	}
	if err := SolveLUInPlace([]float64{1, 2, 2, 4}, []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Fatalf("singular system: err = %v, want ErrSingular", err)
	}
	if err := SolveLUInPlace([]float64{1, 2, 3}, []float64{1, 2}); err == nil {
		t.Fatal("a 3-element matrix for a 2-element rhs was accepted")
	}
}

func TestLeastSquaresExactSystem(t *testing.T) {
	// Square full-rank system: least squares must reproduce the exact solve.
	a := NewMatrixFromRows([][]float64{
		{3, 1},
		{1, 2},
	})
	x, err := LeastSquares(a, []float64{9, 8})
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(x[0], 2, 1e-10) || !approxEq(x[1], 3, 1e-10) {
		t.Fatalf("got %v", x)
	}
}

func TestLeastSquaresOverdetermined(t *testing.T) {
	// Fit y = 2x + 1 through noisy-free points; must recover exactly.
	xs := []float64{0, 1, 2, 3, 4}
	a := NewMatrix(len(xs), 2)
	b := make([]float64, len(xs))
	for i, x := range xs {
		a.Set(i, 0, 1)
		a.Set(i, 1, x)
		b[i] = 2*x + 1
	}
	coef, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(coef[0], 1, 1e-10) || !approxEq(coef[1], 2, 1e-10) {
		t.Fatalf("got %v", coef)
	}
}

func TestLeastSquaresResidualOrthogonality(t *testing.T) {
	// Normal-equation property: Aᵀ(Ax − b) = 0 at the least-squares solution.
	r := xrand.New(55)
	for trial := 0; trial < 100; trial++ {
		m := 5 + r.Intn(20)
		n := 1 + r.Intn(5)
		a := NewMatrix(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, r.Float64()*4-2)
			}
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = r.Float64()*10 - 5
		}
		x, err := LeastSquares(a, b)
		if err != nil {
			// Random matrices can be rank-deficient in principle; skip.
			continue
		}
		res := a.MulVec(x)
		for i := range res {
			res[i] -= b[i]
		}
		atr := a.T().MulVec(res)
		if NormInf(atr) > 1e-8*(1+Norm2(b)) {
			t.Fatalf("trial %d: residual not orthogonal: %v", trial, atr)
		}
	}
}

func TestLeastSquaresRecoversPlantedModel(t *testing.T) {
	// This mirrors the MVLR use case: recover planted linear coefficients
	// (idle power + 5 event-rate energies) from noisy observations.
	r := xrand.New(77)
	truth := []float64{12.5, 3.2, -1.1, 0.8, 2.4, 0.05, 1.9}
	const m = 4000
	a := NewMatrix(m, len(truth))
	b := make([]float64, m)
	for i := 0; i < m; i++ {
		a.Set(i, 0, 1) // intercept
		y := truth[0]
		for j := 1; j < len(truth); j++ {
			v := r.Float64() * 10
			a.Set(i, j, v)
			y += truth[j] * v
		}
		b[i] = y + 0.05*r.NormFloat64()
	}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for j := range truth {
		if !approxEq(x[j], truth[j], 0.02) {
			t.Fatalf("coef %d: got %v want %v", j, x[j], truth[j])
		}
	}
}

func TestLeastSquaresUnderdetermined(t *testing.T) {
	a := NewMatrix(2, 3)
	if _, err := LeastSquares(a, []float64{1, 2}); err == nil {
		t.Fatal("expected error for underdetermined system")
	}
}

func TestLeastSquaresRankDeficient(t *testing.T) {
	// Two identical columns: rank deficient, must report an error rather
	// than return garbage.
	a := NewMatrixFromRows([][]float64{
		{1, 1},
		{2, 2},
		{3, 3},
	})
	if _, err := LeastSquares(a, []float64{1, 2, 3}); err == nil {
		t.Fatal("expected ErrSingular for rank-deficient system")
	}
}

func TestVectorHelpers(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("Dot")
	}
	if !approxEq(Norm2([]float64{3, 4}), 5, 1e-12) {
		t.Fatal("Norm2")
	}
	if NormInf([]float64{-7, 3}) != 7 {
		t.Fatal("NormInf")
	}
	y := []float64{1, 1}
	AXPY(2, []float64{3, 4}, y)
	if y[0] != 7 || y[1] != 9 {
		t.Fatal("AXPY")
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestSolveThenMulIsIdentityProperty(t *testing.T) {
	// quick.Check property: for diagonally dominant A built from arbitrary
	// bytes, A·SolveLU(A,b) ≈ b.
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%6) + 1
		r := xrand.New(seed)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, r.Float64()-0.5)
			}
			a.Set(i, i, a.At(i, i)+float64(n)+1)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r.Float64() * 100
		}
		x, err := SolveLU(a, b)
		if err != nil {
			return false
		}
		back := a.MulVec(x)
		for i := range b {
			if !approxEq(back[i], b[i], 1e-7*(1+math.Abs(b[i]))) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSolveLU8(b *testing.B) {
	r := xrand.New(1)
	n := 8
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, r.Float64())
		}
		a.Set(i, i, a.At(i, i)+10)
	}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveLU(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLeastSquaresMVLRShape(b *testing.B) {
	// 2000 samples × 6 coefficients: the shape of one power-model fit.
	r := xrand.New(1)
	m, n := 2000, 6
	a := NewMatrix(m, n)
	for i := 0; i < m; i++ {
		a.Set(i, 0, 1)
		for j := 1; j < n; j++ {
			a.Set(i, j, r.Float64()*10)
		}
	}
	rhs := make([]float64, m)
	for i := range rhs {
		rhs[i] = r.Float64() * 50
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LeastSquares(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMatrixStringAndIdentity(t *testing.T) {
	m := Identity(2)
	s := m.String()
	if s == "" {
		t.Fatal("empty String()")
	}
	if m.At(0, 0) != 1 || m.At(0, 1) != 0 {
		t.Fatal("identity values wrong")
	}
}

func TestMulPanicsOnMismatch(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Mul(b)
}

func TestAXPYPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	AXPY(1, []float64{1}, []float64{1, 2})
}
