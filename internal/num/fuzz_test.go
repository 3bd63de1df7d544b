package num

import (
	"math"
	"testing"
)

// fuzzValue decodes one matrix or RHS entry: mostly sixteenths in
// [-8, 8), so structural cancellations stay exact, with rare exact
// zeros, −0, subnormals, ±Inf and NaN.
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
