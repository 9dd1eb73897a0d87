// Package linalg implements the dense linear algebra required by the
// modeling framework: matrix/vector arithmetic, LU factorization with
// partial pivoting (used to solve the Newton–Raphson correction systems of
// the cache-equilibrium solver), and Householder QR least squares (used by
// the multi-variable linear regression power model).
//
// The package is deliberately small and allocation-conscious rather than a
// general-purpose BLAS: systems in this project are tiny (k ≤ 8 unknowns
// for equilibrium, 6 coefficients for MVLR) but are solved millions of
// times across the experiment sweeps.
package linalg

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense, row-major matrix of float64.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zero-initialized rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative matrix dimension")
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewMatrixFromRows builds a matrix from row slices. All rows must have the
// same length. The data is copied.
func NewMatrixFromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic("linalg: ragged rows")
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of %dx%d", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// Mul returns m × other. Panics on dimension mismatch.
func (m *Matrix) Mul(other *Matrix) *Matrix {
	if m.cols != other.rows {
		panic(fmt.Sprintf("linalg: mul %dx%d by %dx%d", m.rows, m.cols, other.rows, other.cols))
	}
	out := NewMatrix(m.rows, other.cols)
	for i := 0; i < m.rows; i++ {
		mi := m.data[i*m.cols : (i+1)*m.cols]
		oi := out.data[i*out.cols : (i+1)*out.cols]
		for k, a := range mi {
			if a == 0 {
				continue
			}
			ok := other.data[k*other.cols : (k+1)*other.cols]
			for j, b := range ok {
				oi[j] += float64(a * b)
			}
		}
	}
	return out
}

// MulVec returns m × v as a new vector. Panics on dimension mismatch.
func (m *Matrix) MulVec(v []float64) []float64 {
	if m.cols != len(v) {
		panic(fmt.Sprintf("linalg: mulvec %dx%d by %d", m.rows, m.cols, len(v)))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		s := 0.0
		for j, a := range row {
			s += float64(a * v[j])
		}
		out[i] = s
	}
	return out
}

// String formats the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%10.4g", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ErrSingular is returned when a linear system is (numerically) singular.
var ErrSingular = errors.New("linalg: singular matrix")

// SolveLU solves A·x = b for square A using LU factorization with partial
// pivoting. A and b are not modified. Returns ErrSingular when a pivot
// underflows.
func SolveLU(a *Matrix, b []float64) ([]float64, error) {
	if a.cols != a.rows {
		return nil, fmt.Errorf("linalg: SolveLU needs square matrix, got %dx%d", a.rows, a.cols)
	}
	if len(b) != a.rows {
		return nil, fmt.Errorf("linalg: SolveLU rhs length %d, want %d", len(b), a.rows)
	}
	x := make([]float64, len(b))
	copy(x, b)
	if err := SolveLUInPlace(a.Clone().data, x); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveLUInPlace is SolveLU without its copies, for callers that solve in
// a loop: a holds the n×n matrix row-major and is overwritten by its LU
// factors, b holds the right-hand side and is overwritten by the solution.
// The arithmetic is SolveLU's, operation for operation.
func SolveLUInPlace(a, b []float64) error {
	n := len(b)
	if len(a) != n*n {
		return fmt.Errorf("linalg: SolveLUInPlace has %d matrix elements for a rhs of length %d", len(a), n)
	}
	for col := 0; col < n; col++ {
		// Partial pivoting: pick the largest magnitude in this column.
		pivot := col
		maxAbs := math.Abs(a[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r*n+col]); v > maxAbs {
				maxAbs = v
				pivot = r
			}
		}
		if maxAbs < 1e-14 {
			return ErrSingular
		}
		if pivot != col {
			for j := 0; j < n; j++ {
				a[col*n+j], a[pivot*n+j] = a[pivot*n+j], a[col*n+j]
			}
			b[col], b[pivot] = b[pivot], b[col]
		}
		inv := 1 / a[col*n+col]
		for r := col + 1; r < n; r++ {
			f := a[r*n+col] * inv
			if f == 0 {
				continue
			}
			a[r*n+col] = f
			for j := col + 1; j < n; j++ {
				a[r*n+j] -= float64(f * a[col*n+j])
			}
			b[r] -= float64(f * b[col])
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < n; j++ {
			s -= float64(a[i*n+j] * b[j])
		}
		b[i] = s / a[i*n+i]
	}
	return nil
}

// LeastSquares solves min_x ||A·x − b||₂ for a full-column-rank A with
// rows ≥ cols, using Householder QR. This is the numerical core of the MVLR
// power model (Eq. 9 of the paper). A and b are not modified.
func LeastSquares(a *Matrix, b []float64) ([]float64, error) {
	m, n := a.rows, a.cols
	if m < n {
		return nil, fmt.Errorf("linalg: LeastSquares is underdetermined (%d rows, %d cols)", m, n)
	}
	if len(b) != m {
		return nil, fmt.Errorf("linalg: LeastSquares rhs length %d, want %d", len(b), m)
	}
	r := a.Clone()
	y := make([]float64, m)
	copy(y, b)
	// Householder reflections applied in place to r and y.
	for k := 0; k < n; k++ {
		// Norm of the k-th column below the diagonal.
		norm := 0.0
		for i := k; i < m; i++ {
			norm = math.Hypot(norm, r.data[i*n+k])
		}
		if norm < 1e-14 {
			return nil, ErrSingular
		}
		// Choose the reflector sign that avoids cancellation on the diagonal.
		if r.data[k*n+k] < 0 {
			norm = -norm
		}
		// Build the reflector v in-place in column k.
		for i := k; i < m; i++ {
			r.data[i*n+k] /= norm
		}
		r.data[k*n+k] += 1
		// Apply to remaining columns.
		for j := k + 1; j < n; j++ {
			s := 0.0
			for i := k; i < m; i++ {
				s += float64(r.data[i*n+k] * r.data[i*n+j])
			}
			s = -s / r.data[k*n+k]
			for i := k; i < m; i++ {
				r.data[i*n+j] += float64(s * r.data[i*n+k])
			}
		}
		// Apply to the right-hand side.
		s := 0.0
		for i := k; i < m; i++ {
			s += float64(r.data[i*n+k] * y[i])
		}
		s = -s / r.data[k*n+k]
		for i := k; i < m; i++ {
			y[i] += float64(s * r.data[i*n+k])
		}
		// Store the diagonal of R; the reflector occupied it. With the sign
		// convention above, R(k,k) = -norm.
		r.data[k*n+k] = -norm
	}
	// Back substitution against the upper-triangular R.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= float64(r.data[i*n+j] * x[j])
		}
		x[i] = s / r.data[i*n+i]
	}
	return x, nil
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s = math.Hypot(s, x)
	}
	return s
}

// NormInf returns the maximum-magnitude entry of v.
func NormInf(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > s {
			s = a
		}
	}
	return s
}

// Dot returns the inner product of a and b. Panics on length mismatch.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: dot length mismatch")
	}
	s := 0.0
	for i, x := range a {
		s += float64(x * b[i])
	}
	return s
}

// AXPY computes y ← y + alpha·x in place. Panics on length mismatch.
func AXPY(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("linalg: axpy length mismatch")
	}
	for i, v := range x {
		y[i] += float64(alpha * v)
	}
}
