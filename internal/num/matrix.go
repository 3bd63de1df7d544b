// Package num provides the numerical kernels used by the SAMURAI
// reproduction: dense linear algebra (the MNA solver's workhorse), FFTs
// for spectral estimation, interpolation and basic statistics.
//
// The circuits simulated here are small (a 6T SRAM cell plus drivers is
// ~15 nodes), so a dense LU with partial pivoting is exact; PatternLU
// replays that same elimination over a frozen structural pattern,
// skipping only operations on exact zeros, so it returns the dense
// code's factors and solutions bit for bit at a fraction of the work.
package num

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense, row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix returns a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("num: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add accumulates v into element (i, j). MNA stamping is built on this.
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Zero clears all elements in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// CopyFrom overwrites m with src (dimensions must match).
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic("num: CopyFrom dimension mismatch")
	}
	copy(m.Data, src.Data)
}

// MulVec computes y = m·x. It panics on dimension mismatch.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic("num: MulVec dimension mismatch")
	}
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// MulVecInto computes dst = m·x without allocating. dst must not alias
// x. It panics on dimension mismatch.
//
//lint:hot
func (m *Matrix) MulVecInto(dst, x []float64) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic("num: MulVecInto dimension mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			fmt.Fprintf(&b, "% .6e ", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// MaxAbs returns the largest absolute element value (the max norm).
func (m *Matrix) MaxAbs() float64 {
	mx := 0.0
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// VecNormInf returns max_i |x_i|.
func VecNormInf(x []float64) float64 {
	mx := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// VecNorm2 returns the Euclidean norm of x.
func VecNorm2(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// SubInto computes dst = a−b without allocating. dst may alias a or b.
//
//lint:hot
func SubInto(dst, a, b []float64) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("num: SubInto length mismatch")
	}
	for i := range a {
		dst[i] = a[i] - b[i]
	}
}

// VecSub returns a-b as a new slice.
func VecSub(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic("num: VecSub length mismatch")
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}
