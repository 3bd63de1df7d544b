package num

import (
	"errors"
	"math"
	"testing"
)

// fuzzMatrix decodes a dense matrix from fuzz bytes: each potential
// entry consumes one byte for presence/value. Values land on a coarse
// lattice (sixteenths in [-8, 8)) so structural cancellations stay
// exact and the singular paths actually get exercised.
func fuzzMatrix(n int, dominant bool, data []byte) *Matrix {
	m := NewMatrix(n, n)
	k := 0
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[k%len(data)]
		k++
		return b
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b := next()
			if b%3 == 0 {
				continue // structural zero
			}
			m.Set(i, j, float64(int8(b))/16)
		}
	}
	if dominant {
		for i := 0; i < n; i++ {
			rowSum := 0.0
			for j := 0; j < n; j++ {
				if i != j {
					rowSum += math.Abs(m.At(i, j))
				}
			}
			m.Set(i, i, math.Abs(m.At(i, i))+rowSum+1)
		}
	}
	return m
}

// FuzzSparseVsDenseLU drives the sparse factorisation against the
// dense reference on arbitrary fuzz-derived matrices. Diagonally
// dominant mode checks the solutions agree; raw mode checks the
// solvers agree on (near-)singularity and that both workspaces stay
// usable after an ErrSingular — the recovery contract the circuit
// layer relies on when a bias point degenerates.
func FuzzSparseVsDenseLU(f *testing.F) {
	f.Add([]byte{1, 0, 17, 42, 99, 3, 250, 7, 16})
	f.Add([]byte{2, 1, 0, 0, 0, 0})
	f.Add([]byte{5, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	f.Add([]byte{7, 1, 200, 100, 50, 25, 12, 6, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := int(data[0]%10) + 1
		dominant := data[1]&1 == 0
		d := fuzzMatrix(n, dominant, data[2:])
		s := sparseFromDense(d)

		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = float64(i%5) - 2
		}
		denseLU := NewLU(n)
		denseErr := denseLU.FactorInto(d)
		sf := NewSparseLU()
		sparseErr := sf.FactorInto(s)

		if denseErr == nil && sparseErr == nil {
			xd := denseLU.Solve(rhs)
			xs := sf.Solve(rhs)
			scale := 1 + VecNormInf(xd)
			if dominant {
				for i := range xd {
					if math.Abs(xs[i]-xd[i]) > 1e-9*scale {
						t.Fatalf("solutions diverge at %d: sparse %.17g dense %.17g", i, xs[i], xd[i])
					}
				}
			}
			// Backward-stability parity in both modes: each solver's
			// residual must be rounding-sized relative to ‖A‖·‖x‖ for
			// its own solution. (Near-singular inputs make the raw
			// residuals incomparable — both x's are junk whose norms
			// depend on which rounding crumbs became the last pivot.)
			bound := func(x []float64) float64 {
				return 1e-8 * float64(n) * (1 + d.MaxAbs()) * (1 + VecNormInf(x))
			}
			if rd := solveResidual(d, xd, rhs); rd > bound(xd) {
				t.Fatalf("dense residual %g not backward-stable (bound %g)", rd, bound(xd))
			}
			if rs := solveResidual(d, xs, rhs); rs > bound(xs) {
				t.Fatalf("sparse residual %g not backward-stable (bound %g)", rs, bound(xs))
			}
		} else if (denseErr == nil) != (sparseErr == nil) {
			// Different pivot orders may round an exactly-cancelling
			// pivot to zero in one solver and leave amplified rounding
			// noise in the other; a disagreement is only legitimate
			// when the survivor's smallest pivot shows the matrix is
			// effectively singular.
			minPiv := math.Inf(1)
			if sparseErr == nil {
				for _, u := range sf.uDiag[:n] {
					if a := math.Abs(u); a < minPiv {
						minPiv = a
					}
				}
			} else {
				for i := 0; i < n; i++ {
					if a := math.Abs(denseLU.lu.At(i, i)); a < minPiv {
						minPiv = a
					}
				}
			}
			if minPiv > 1e-6*(1+d.MaxAbs()) {
				t.Fatalf("singularity disagreement far from the edge: dense err %v, sparse err %v, min pivot %g",
					denseErr, sparseErr, minPiv)
			}
		} else {
			if !errors.Is(sparseErr, ErrSingular) {
				t.Fatalf("sparse error is not ErrSingular: %v", sparseErr)
			}
		}

		// Recovery parity: after whatever just happened, both
		// workspaces must factor a well-posed matrix.
		good := fuzzMatrix(n, true, data[2:])
		gs := sparseFromDense(good)
		if err := denseLU.FactorInto(good); err != nil {
			t.Fatalf("dense workspace unusable after fuzz case: %v", err)
		}
		if err := sf.FactorInto(gs); err != nil {
			t.Fatalf("sparse workspace unusable after fuzz case: %v", err)
		}
		xd := denseLU.Solve(rhs)
		xs := sf.Solve(rhs)
		scale := 1 + VecNormInf(xd)
		for i := range xd {
			if math.Abs(xs[i]-xd[i]) > 1e-9*scale {
				t.Fatalf("post-recovery solutions diverge at %d: %g vs %g", i, xs[i], xd[i])
			}
		}
	})
}

// fuzzValue decodes one matrix or RHS entry: mostly the fuzzMatrix
// lattice, with rare exact zeros, −0, subnormals, ±Inf and NaN.
func fuzzValue(b byte) float64 {
	switch b % 48 {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return 5e-324
	case 3:
		return -1e-310
	case 4:
		return math.Inf(1)
	case 5:
		return math.Inf(-1)
	case 6:
		return math.NaN()
	}
	return float64(int8(b)) / 16
}

// FuzzPatternVsDenseLU drives the frozen-pattern refactorisation
// against LU.FactorInto + SolveInPlace. The bytes choose a size, a
// pattern and a first matrix on it; each later round changes one entry
// of the previous matrix, so the plan is replayed, falls back and is
// rebuilt. Every round must match the dense code bit for bit in error,
// pivots, factors and solution.
func FuzzPatternVsDenseLU(f *testing.F) {
	f.Add([]byte{3, 1, 17, 42, 99, 3, 250, 7, 16, 33})
	f.Add([]byte{0, 1})
	f.Add([]byte{11, 1, 0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 52, 53, 54})
	f.Add([]byte{7, 0, 200, 100, 50, 25, 12, 6, 3, 150, 96, 48})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(data[0])%12
		dominant := data[1]%2 == 1
		data = data[2:]
		k := 0
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[k%len(data)]
			k++
			return b
		}
		var pat []int32
		for off := 0; off < n*n; off++ {
			if next()%3 != 0 || dominant && off%(n+1) == 0 {
				pat = append(pat, int32(off))
			}
		}
		pl := NewPatternLU(n, pat)
		a := NewMatrix(n, n)
		for _, off := range pat {
			a.Data[off] = fuzzValue(next())
			if dominant && int(off)%(n+1) == 0 {
				a.Data[off] = float64(n) * (16 + float64(next()%16))
			}
		}
		b := make([]float64, n)
		for round := 0; round < 6; round++ {
			if round > 0 && len(pat) > 0 {
				a = a.Clone()
				a.Data[pat[int(next())%len(pat)]] = fuzzValue(next())
			}
			for i := range b {
				b[i] = fuzzValue(next())
			}
			checkPatternLU(t, pl, a, b)
		}
	})
}
