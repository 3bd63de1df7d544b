package num

import (
	"errors"
	"math"
	"testing"

	"samurai/internal/rng"
)

// patternOf returns the ascending row-major offsets of a's nonzero
// entries plus any extra offsets (structural entries holding 0).
func patternOf(a *Matrix, extra ...int) []int32 {
	on := make([]bool, len(a.Data))
	for off, v := range a.Data {
		if v != 0 {
			on[off] = true
		}
	}
	for _, off := range extra {
		on[off] = true
	}
	var pat []int32
	for off, ok := range on {
		if ok {
			pat = append(pat, int32(off))
		}
	}
	return pat
}

// sameBits reports whether two floats are the same bit pattern.
func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// checkPatternLU factors a with pl and with a fresh dense LU, then
// solves b with both. It requires the same error and, bit for bit, the
// same pivots, factor matrix (every entry, the ±0 of L outside the
// pattern included) and solution. It reports whether pl replayed its
// plan rather than falling back to the dense code.
func checkPatternLU(t *testing.T, pl *PatternLU, a *Matrix, b []float64) (replayed bool) {
	t.Helper()
	ref := &LU{}
	errRef := ref.FactorInto(a)
	err := pl.FactorInto(a)
	if !errors.Is(err, errRef) {
		t.Fatalf("error %v, dense reference %v", err, errRef)
	}
	if errRef != nil {
		return false
	}
	lu, pivot, replayed := pl.FactorsForTest()
	for k, p := range ref.pivot {
		if pivot[k] != p {
			t.Fatalf("pivot[%d] = %d, dense reference %d (replayed %v)", k, pivot[k], p, replayed)
		}
	}
	for i, v := range ref.lu.Data {
		if !sameBits(lu.Data[i], v) {
			t.Fatalf("factor entry %d = %v, dense reference %v (replayed %v)", i, lu.Data[i], v, replayed)
		}
	}
	xRef := append([]float64(nil), b...)
	ref.SolveInPlace(xRef)
	x := append([]float64(nil), b...)
	pl.SolveInPlace(x)
	for i := range x {
		if !sameBits(x[i], xRef[i]) {
			t.Fatalf("x[%d] = %v (%#x), dense reference %v (%#x)", i, x[i], math.Float64bits(x[i]), xRef[i], math.Float64bits(xRef[i]))
		}
	}
	return replayed
}

// sparseRandom fills the given pattern with values in ±[0.5, 1.5),
// leaving every other entry +0.
func sparseRandom(r *rng.Stream, n int, pat []int32) *Matrix {
	a := NewMatrix(n, n)
	for _, off := range pat {
		v := 0.5 + r.Float64()
		if r.Float64() < 0.5 {
			v = -v
		}
		a.Data[off] = v
	}
	return a
}

func randomVec(r *rng.Stream, n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = 2*r.Float64() - 1
	}
	return b
}

// TestPatternLURandomPatterns replays random patterns for n = 0..20:
// each pattern gets a sequence of matrices, most of them small
// perturbations of the first (so the plan replays) and some redrawn
// outright (so the pivots move and the plan is rebuilt).
func TestPatternLURandomPatterns(t *testing.T) {
	r := rng.New(20)
	replays := 0
	for n := 0; n <= 20; n++ {
		for trial := 0; trial < 6; trial++ {
			density := 0.1 + 0.5*r.Float64()
			a0 := NewMatrix(n, n)
			for off := range a0.Data {
				if r.Float64() < density || off%(n+1) == 0 && r.Float64() < 0.7 {
					a0.Data[off] = 1
				}
			}
			pat := patternOf(a0)
			pl := NewPatternLU(n, pat)
			base := sparseRandom(r, n, pat)
			for step := 0; step < 12; step++ {
				a := base.Clone()
				switch {
				case step%5 == 4:
					a = sparseRandom(r, n, pat)
				default:
					for _, off := range pat {
						a.Data[off] *= 1 + 1e-3*(2*r.Float64()-1)
					}
				}
				if step == 7 && len(pat) > 0 {
					// A structural entry holding exactly 0.
					a.Data[pat[r.Intn(len(pat))]] = 0
				}
				if checkPatternLU(t, pl, a, randomVec(r, n)) {
					replays++
				}
				// The arena is sized from the symbolic pass: re-planning
				// from the same pivots must fit in it.
				if pl.planned && testing.AllocsPerRun(1, pl.plan) != 0 {
					t.Fatalf("n=%d: re-plan allocated", n)
				}
			}
		}
	}
	if replays < 500 {
		t.Fatalf("only %d factorisations replayed a plan; the test is not exercising it", replays)
	}
}

// TestPatternLUTiedPivots pins the strict > of the pivot scan: among
// candidates of equal magnitude the first in scan order wins, in the
// plan exactly as in FactorInto.
func TestPatternLUTiedPivots(t *testing.T) {
	a := NewMatrix(4, 4)
	copy(a.Data, []float64{
		2, 1, 0, 0,
		-2, 0, 3, 0,
		2, 0, 0, 1,
		0, 1, 1, 1,
	})
	pl := NewPatternLU(4, patternOf(a))
	b := []float64{1, 2, 3, 4}
	checkPatternLU(t, pl, a, b)
	if !checkPatternLU(t, pl, a, b) {
		t.Fatal("identical matrix did not replay the plan")
	}
	// Planned with row 2 strictly largest, then tied with row 0: the
	// scan keeps row 0, which differs from the plan.
	c := a.Clone()
	c.Set(2, 0, 3)
	pl = NewPatternLU(4, patternOf(c))
	checkPatternLU(t, pl, c, b)
	if checkPatternLU(t, pl, a, b) {
		t.Fatal("a tie resolved against the planned pivot was replayed")
	}
	if !checkPatternLU(t, pl, a, b) {
		t.Fatal("re-planned matrix did not replay")
	}
}

// TestPatternLUPivotChangeReplans runs a sequence whose pivot row
// changes mid-run: the plan must fall back, re-plan, and replay the new
// plan afterwards.
func TestPatternLUPivotChangeReplans(t *testing.T) {
	mk := func(big int) *Matrix {
		a := NewMatrix(3, 3)
		copy(a.Data, []float64{
			1, 0.5, 0,
			0.25, 1, 0.5,
			0.5, 0, 1,
		})
		a.Set(big, 0, 4)
		return a
	}
	pat := patternOf(mk(0))
	pl := NewPatternLU(3, pat)
	b := []float64{1, -1, 2}
	seq := []struct {
		big      int
		replayed bool
	}{{0, false}, {0, true}, {2, false}, {2, true}, {1, false}, {1, true}}
	for i, s := range seq {
		if got := checkPatternLU(t, pl, mk(s.big), b); got != s.replayed {
			t.Fatalf("step %d: replayed = %v, want %v", i, got, s.replayed)
		}
	}
}

// TestPatternLUSpecialValues covers negative and subnormal pivots,
// structural zeros, ±Inf and NaN entries, −0 inputs and singular
// matrices: every case must match the dense code bit for bit,
// including its error.
func TestPatternLUSpecialValues(t *testing.T) {
	negZero := math.Copysign(0, -1)
	base := []float64{
		-4, 1, 0, 0.5,
		1, -3, 1, 0,
		0, 1, -5, 1,
		0.5, 0, 1, -2,
	}
	pat := patternOf(&Matrix{Rows: 4, Cols: 4, Data: base})
	cases := []struct {
		name string
		set  map[int]float64
		b    []float64
	}{
		{"negative pivots", nil, nil},
		{"subnormal pivot", map[int]float64{0: 5e-324, 4: 0, 12: 0}, nil},
		{"subnormal multiplier", map[int]float64{4: 1e-310}, nil},
		{"structural zero", map[int]float64{1: 0}, nil},
		{"structural zero diagonal", map[int]float64{0: 0}, nil},
		{"+Inf entry", map[int]float64{3: math.Inf(1)}, nil},
		{"-Inf pivot", map[int]float64{0: math.Inf(-1)}, nil},
		{"NaN entry", map[int]float64{6: math.NaN()}, nil},
		{"NaN pivot", map[int]float64{0: math.NaN()}, nil},
		{"NaN below pivot", map[int]float64{12: math.NaN()}, nil},
		{"-0 entry", map[int]float64{1: negZero}, nil},
		{"-0 rhs", nil, []float64{negZero, 1, negZero, 2}},
		{"Inf rhs", nil, []float64{1, math.Inf(1), 0, 2}},
		{"NaN rhs", nil, []float64{math.NaN(), 1, 0, 2}},
		{"overflowing solve", map[int]float64{0: 1e-300, 4: 0, 12: 0}, []float64{1e300, 1, 1, 1}},
		{"zero column", map[int]float64{0: 0, 4: 0, 12: 0}, nil},
		// Row 3 becomes exactly half of row 0 within the pattern.
		{"dependent rows", map[int]float64{1: 0, 12: -2, 14: 0, 15: 0.25}, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pl := NewPatternLU(4, pat)
			// Plan on the healthy matrix, then present the special one
			// twice (fallback, then replay of any re-plan).
			healthy := &Matrix{Rows: 4, Cols: 4, Data: append([]float64(nil), base...)}
			b0 := []float64{1, 2, 3, 4}
			checkPatternLU(t, pl, healthy, b0)
			a := healthy.Clone()
			for off, v := range c.set {
				a.Data[off] = v
			}
			b := c.b
			if b == nil {
				b = b0
			}
			checkPatternLU(t, pl, a, b)
			checkPatternLU(t, pl, a, b)
			checkPatternLU(t, pl, healthy, b0)
		})
	}
}

// TestPatternLUSingularFirst starts from a singular matrix: there is no
// pivot sequence to plan from, so the next healthy matrix plans.
func TestPatternLUSingularFirst(t *testing.T) {
	a := NewMatrix(2, 2)
	copy(a.Data, []float64{1, 2, 2, 4})
	pl := NewPatternLU(2, patternOf(a))
	b := []float64{1, 1}
	checkPatternLU(t, pl, a, b)
	c := a.Clone()
	c.Set(1, 1, 5)
	checkPatternLU(t, pl, c, b)
	if !checkPatternLU(t, pl, c, b) {
		t.Fatal("healthy matrix after a singular first one did not replay")
	}
	checkPatternLU(t, pl, a, b)
}

// TestPatternLUReplanAllocates: once planned, replays and re-plans of
// the same size reuse the plan's storage.
func TestPatternLUReplanAllocates(t *testing.T) {
	r := rng.New(5)
	n := 12
	a := randomDominant(r, n)
	pl := NewPatternLU(n, patternOf(a))
	b := randomVec(r, n)
	x := make([]float64, n)
	if err := pl.FactorInto(a); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := pl.FactorInto(a); err != nil {
			t.Fatal(err)
		}
		copy(x, b)
		pl.SolveInPlace(x)
		pl.plan()
	})
	if allocs != 0 {
		t.Fatalf("replay + solve + re-plan allocated %v times per run", allocs)
	}
}
