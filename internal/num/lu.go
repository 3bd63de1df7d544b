package num

import (
	"errors"
	"math"
)

// ErrSingular is returned when LU factorisation encounters a pivot that
// is numerically zero. In circuit terms this means the MNA matrix is
// singular — typically a floating node or a loop of ideal sources.
var ErrSingular = errors.New("num: matrix is singular to working precision")

// LU holds an in-place LU factorisation with partial pivoting:
// P·A = L·U where L is unit lower triangular and U upper triangular.
type LU struct {
	lu    *Matrix
	pivot []int
	signP int // determinant sign of P
}

// Factor computes the LU factorisation of a (which is copied, not
// modified). It returns ErrSingular if a pivot underflows.
func Factor(a *Matrix) (*LU, error) {
	f := &LU{}
	if err := f.FactorInto(a); err != nil {
		return nil, err
	}
	return f, nil
}

// NewLU returns an empty n×n factorisation workspace ready for
// FactorInto. Holding one per solver context keeps repeated
// factorisations allocation-free.
func NewLU(n int) *LU {
	return &LU{lu: NewMatrix(n, n), pivot: make([]int, n)}
}

// FactorInto recomputes the factorisation of a into f's existing
// storage, allocating only when the workspace is absent or sized for a
// different dimension. The elimination is identical to Factor, so a
// reused workspace yields bit-identical factors and solutions to a
// fresh factorisation of the same matrix. On ErrSingular the workspace
// contents are unspecified but remain reusable.
func (f *LU) FactorInto(a *Matrix) error {
	if a.Rows != a.Cols {
		panic("num: Factor requires a square matrix")
	}
	n := a.Rows
	if f.lu == nil || f.lu.Rows != n || f.lu.Cols != n {
		f.lu = NewMatrix(n, n)
		f.pivot = make([]int, n)
	}
	f.lu.CopyFrom(a)
	f.signP = 1
	lu := f.lu
	for k := 0; k < n; k++ {
		// Partial pivoting: find the largest |entry| in column k.
		p := k
		maxAbs := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu.At(i, k)); a > maxAbs {
				maxAbs = a
				p = i
			}
		}
		f.pivot[k] = p
		if maxAbs == 0 || math.IsNaN(maxAbs) {
			return ErrSingular
		}
		if p != k {
			f.signP = -f.signP
			for j := 0; j < n; j++ {
				v := lu.At(k, j)
				lu.Set(k, j, lu.At(p, j))
				lu.Set(p, j, v)
			}
		}
		inv := 1 / lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) * inv
			lu.Set(i, k, m)
			if m == 0 {
				continue
			}
			rowI := lu.Data[i*n : (i+1)*n]
			rowK := lu.Data[k*n : (k+1)*n]
			for j := k + 1; j < n; j++ {
				rowI[j] -= m * rowK[j]
			}
		}
	}
	return nil
}

// Solve returns x such that A·x = b. b is not modified.
func (f *LU) Solve(b []float64) []float64 {
	n := f.lu.Rows
	if len(b) != n {
		panic("num: Solve dimension mismatch")
	}
	x := make([]float64, n)
	copy(x, b)
	f.SolveInPlace(x)
	return x
}

// SolveInPlace overwrites x (initially holding b) with the solution.
//
//lint:hot
func (f *LU) SolveInPlace(x []float64) {
	n := f.lu.Rows
	lu := f.lu
	// Apply P.
	for k := 0; k < n; k++ {
		if p := f.pivot[k]; p != k {
			x[k], x[p] = x[p], x[k]
		}
	}
	// Forward substitution with unit-diagonal L.
	for i := 1; i < n; i++ {
		row := lu.Data[i*n : (i+1)*n]
		s := x[i]
		for j := 0; j < i; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		row := lu.Data[i*n : (i+1)*n]
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
}

// FactorsForTest returns the factor storage of the last factorisation
// (L below the unit diagonal, U on and above it, rows in pivoted
// order) and its pivot sequence, aliasing the workspace. It exists for
// differential tests outside this package.
func (f *LU) FactorsForTest() (lu *Matrix, pivot []int) {
	return f.lu, f.pivot
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	d := float64(f.signP)
	n := f.lu.Rows
	for i := 0; i < n; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}

// SolveLinear is a convenience one-shot solve of A·x = b.
func SolveLinear(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}
