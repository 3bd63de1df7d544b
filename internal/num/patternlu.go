package num

import "math"

// negZero is the bit pattern of −0.
const negZero = 1 << 63

// PatternLU refactorises a sequence of n×n matrices that share one
// structural pattern — the set of entries that may be nonzero; every
// other entry holds +0 — and returns, bit for bit, what LU.FactorInto
// and LU.SolveInPlace return for the same matrix and right-hand side.
// It does the same floating-point operations on every entry the
// pattern can reach and skips the rest.
//
// The first FactorInto factors densely with LU.FactorInto and plans
// the elimination from the pivot sequence it chose: per column, the
// rows that can be nonzero there (the pivot candidates), the rows to
// eliminate, and the pivot row's entries right of the diagonal,
// including fill-in. Later factorisations replay the plan. At each
// column the replay picks the pivot exactly as FactorInto does — same
// scan order, same strict > — over the candidate rows only: every
// other row holds an exact +0 there and cannot win. FactorInto reruns
// densely on the same matrix, and the plan is rebuilt from its pivots,
// when the pivot differs from the planned one, a pivot is 0 or NaN, or
// 1/pivot or a multiplier is not finite. SolveInPlace walks only the
// L and U entries of the plan and falls back to the dense solve when
// it meets a value that is not finite.
//
// Why nothing moves: an entry outside the pattern stays +0 under
// elimination, because x − m·(+0) returns x for finite m and a +0
// entry stays +0. No entry is ever −0 (x − y is −0 only when x is −0),
// so every update the plan skips is either x − m·(+0) with finite m,
// which returns x, or carries a multiplier of exactly 0, which
// FactorInto skips too. A matrix or right-hand side holding −0 is
// handed to the dense code, as is every non-finite case. The one
// difference from FactorInto's storage is in L outside the pattern:
// FactorInto stores ±0 there (the sign of 1/pivot), the plan nothing;
// the solve multiplies those entries by finite values only, so the sum
// they would enter is unchanged.
//
// All plan storage is flat and owned by the PatternLU; a re-plan
// reuses it. The zero value is not usable; call NewPatternLU.
type PatternLU struct {
	n   int
	pat []int32 // row-major offsets of the structural entries
	// a is the matrix of the last FactorInto: SolveInPlace's dense
	// fallback refactors it, so it must not change in between.
	a        *Matrix
	dense    LU   // first factorisation, fallback and reference
	planned  bool // the plan below is built
	useDense bool // the last FactorInto ran densely

	w    []float64 // n×n working factors in original row order
	y    []float64 // permuted solve vector
	nz   []byte    // n×n structure state of w, fill included
	rows []int32   // row at each position while planning

	// The plan. Offsets index w; the lists are carved from one arena.
	steps []step
	arena []int32
	fill  []int32 // fill-in offsets (zeroed before each replay)
	cand  []int32 // pivot candidates per column in scan order, position k first
	elim  []int32 // multiplier offsets per column (the rows it eliminates)
	upd   []int32 // (target, pivot-row source) pairs per eliminated row
	lop   []int32 // (offset, column) pairs of L per row, ascending
	uop   []int32 // (offset, column) pairs of U right of the diagonal per row
	piv   []int32 // the planned pivot sequence, as LU's pivot
}

// step is the plan of position k: column k of the elimination and row
// k of the substitution. Each *End closes position k's range in its
// list, which position k−1's End opens (0 for k = 0).
type step struct {
	candEnd int32 // cand
	pivot   int32 // offset of the planned pivot
	elimEnd int32 // elim
	nu      int32 // update pairs per eliminated row: the pivot row's U entries
	src     int32 // original row at position k (y[k] = x[src])
	diag    int32 // offset of U's diagonal entry of row k
	lEnd    int32 // lop, in pairs
	uEnd    int32 // uop, in pairs
}

// NewPatternLU returns a refactorisation workspace for n×n matrices
// whose structural nonzeros are the row-major offsets (i·n+j) in
// pattern. The slice is read, never modified, and must stay unchanged.
func NewPatternLU(n int, pattern []int32) *PatternLU {
	wy := make([]float64, n*n+n)
	return &PatternLU{
		n:     n,
		pat:   pattern,
		w:     wy[:n*n],
		y:     wy[n*n:],
		nz:    make([]byte, n*n),
		rows:  make([]int32, n),
		steps: make([]step, n),
	}
}

// FactorInto factors a, whose entries outside the pattern must be +0.
// It returns ErrSingular exactly when LU.FactorInto would.
//
//lint:hot
func (f *PatternLU) FactorInto(a *Matrix) error {
	if a.Rows != f.n || a.Cols != f.n {
		panic("num: PatternLU dimension mismatch")
	}
	f.a = a
	if f.planned && f.replay(a) {
		f.useDense = false
		return nil
	}
	f.useDense = true
	if err := f.dense.FactorInto(a); err != nil {
		// No full pivot sequence: keep the old plan, if any.
		return err
	}
	f.plan()
	return nil
}

// SolveInPlace overwrites x (initially holding b) with the solution of
// the last factored system.
//
//lint:hot
func (f *PatternLU) SolveInPlace(x []float64) {
	if f.useDense || !f.solve(x) {
		f.solveDense(x)
	}
}

// solveDense is the fallback: the dense factors of the last matrix,
// recomputed when the plan produced the current ones.
func (f *PatternLU) solveDense(x []float64) {
	if !f.useDense {
		// The plan factored this matrix, so the same dense
		// factorisation cannot fail.
		if err := f.dense.FactorInto(f.a); err != nil {
			panic("num: PatternLU dense refactorisation failed after a planned one succeeded")
		}
		f.useDense = true
	}
	f.dense.SolveInPlace(x)
}

// replay runs the planned elimination on a. It reports false, leaving
// w unspecified, whenever the plan no longer reproduces FactorInto.
//
//lint:hot
func (f *PatternLU) replay(a *Matrix) bool {
	w := f.w
	for _, off := range f.pat {
		v := a.Data[off]
		if math.Float64bits(v) == negZero {
			return false
		}
		w[off] = v
	}
	for _, off := range f.fill {
		w[off] = 0
	}
	cand, elim, upd := f.cand, f.elim, f.upd
	c0, e0, u := int32(0), int32(0), int32(0)
	for i := range f.steps {
		st := &f.steps[i]
		best := cand[c0]
		maxAbs := math.Abs(w[best])
		for _, off := range cand[c0+1 : st.candEnd] {
			if v := math.Abs(w[off]); v > maxAbs {
				maxAbs, best = v, off
			}
		}
		c0 = st.candEnd
		// !(maxAbs > 0): the pivot is 0 or NaN.
		if best != st.pivot || !(maxAbs > 0) {
			return false
		}
		inv := 1 / w[best]
		if math.IsInf(inv, 0) {
			return false
		}
		nu2 := 2 * st.nu
		for _, off := range elim[e0:st.elimEnd] {
			m := w[off] * inv
			if m-m != 0 { // ±Inf or NaN
				return false
			}
			w[off] = m
			if m != 0 {
				p := upd[u : u+nu2]
				for q := 0; q+1 < len(p); q += 2 {
					w[p[q]] -= m * w[p[q+1]]
				}
			}
			u += nu2
		}
		e0 = st.elimEnd
	}
	return true
}

// solve runs the planned forward and back substitution. It leaves x
// untouched and reports false when an input is −0 or a value is not
// finite; there the skipped products would not be ±0, so only the
// dense solve is exact.
//
//lint:hot
func (f *PatternLU) solve(x []float64) bool {
	w, y, steps := f.w, f.y, f.steps
	if len(steps) == 0 {
		return true
	}
	for i := range steps {
		v := x[steps[i].src]
		if v-v != 0 || math.Float64bits(v) == negZero {
			return false
		}
		y[i] = v
	}
	lop, uop := f.lop, f.uop
	q := int32(0)
	for i := range steps {
		s := y[i]
		for end := 2 * steps[i].lEnd; q < end; q += 2 {
			s -= w[lop[q]] * y[lop[q+1]]
		}
		if s-s != 0 {
			return false
		}
		y[i] = s
	}
	q = 2 * steps[len(steps)-1].uEnd
	for i := len(steps) - 1; i >= 0; i-- {
		st := &steps[i]
		start := int32(0)
		if i > 0 {
			start = 2 * steps[i-1].uEnd
		}
		s := y[i]
		for r := start; r < q; r += 2 {
			s -= w[uop[r]] * y[uop[r+1]]
		}
		q = start
		s /= w[st.diag]
		if s-s != 0 {
			return false
		}
		y[i] = s
	}
	copy(x, y)
	return true
}

// Structure states of a working-matrix entry while planning.
const (
	offStructure = iota
	inPattern
	fillIn
)

// plan rebuilds the elimination plan from dense's pivot sequence: a
// symbolic elimination computes the fill and the final row order, which
// size the arena, and a second pass replays the swaps to emit the lists.
// A pivot outside the pattern (possible only when the caller broke the
// +0 contract) leaves the PatternLU unplanned, so every factorisation
// runs densely.
func (f *PatternLU) plan() {
	n := f.n
	nz, rows, piv := f.nz, f.rows, f.dense.pivot
	for i := range nz {
		nz[i] = offStructure
	}
	for _, off := range f.pat {
		nz[off] = inPattern
	}
	resetRows := func() {
		for i := range rows {
			rows[i] = int32(i)
		}
	}
	resetRows()
	nFill := 0
	for k := 0; k < n; k++ {
		p := piv[k]
		if nz[int(rows[p])*n+k] == offStructure {
			f.planned = false
			return
		}
		rows[k], rows[p] = rows[p], rows[k]
		pr := int(rows[k]) * n
		for i := k + 1; i < n; i++ {
			r := int(rows[i]) * n
			if nz[r+k] == offStructure {
				continue
			}
			for j := k + 1; j < n; j++ {
				if nz[pr+j] != offStructure && nz[r+j] == offStructure {
					nz[r+j] = fillIn
					nFill++
				}
			}
		}
	}
	// rows is now the final order. Every multiplier is an L entry of
	// its row's final position and every pivot row's tail a U row, and
	// column k scans at most its eliminated rows, the pivot and
	// position k.
	nL, nU, nUpd := 0, 0, 0
	for i, r := range rows {
		rowU := 0
		for j, s := range nz[int(r)*n : int(r)*n+n] {
			switch {
			case s == offStructure:
			case j < i:
				nL++
			case j > i:
				rowU++
			}
		}
		colL := 0
		for _, below := range rows[i+1:] {
			if nz[int(below)*n+i] != offStructure {
				colL++
			}
		}
		nU += rowU
		nUpd += colL * rowU
	}
	nCand := nL + 2*n
	total := nFill + nCand + nL + 2*nUpd + 2*nL + 2*nU + n
	if cap(f.arena) < total {
		f.arena = make([]int32, total)
	}
	ar := f.arena[:total]
	carve := func(size int) []int32 {
		s := ar[:0:size]
		ar = ar[size:]
		return s
	}
	f.fill, f.cand, f.elim, f.upd = carve(nFill), carve(nCand), carve(nL), carve(2*nUpd)
	f.lop, f.uop, f.piv = carve(2*nL), carve(2*nU), carve(n)
	for off, s := range nz {
		if s == fillIn {
			f.fill = append(f.fill, int32(off))
		}
	}
	for i, r := range rows {
		st := &f.steps[i]
		base := int(r) * n
		st.src, st.diag = r, int32(base+i)
		for j, s := range nz[base : base+n] {
			switch {
			case s == offStructure:
			case j < i:
				f.lop = append(f.lop, int32(base+j), int32(j))
			case j > i:
				f.uop = append(f.uop, int32(base+j), int32(j))
			}
		}
		st.lEnd, st.uEnd = int32(len(f.lop)/2), int32(len(f.uop)/2)
	}
	resetRows()
	for k := 0; k < n; k++ {
		st := &f.steps[k]
		f.cand = append(f.cand, rows[k]*int32(n)+int32(k))
		for _, r := range rows[k+1:] {
			if off := int(r)*n + k; nz[off] != offStructure {
				f.cand = append(f.cand, int32(off))
			}
		}
		p := piv[k]
		f.piv = append(f.piv, int32(p))
		st.candEnd, st.pivot = int32(len(f.cand)), rows[p]*int32(n)+int32(k)
		rows[k], rows[p] = rows[p], rows[k]
		pr := int(rows[k]) * n
		st.nu = 0
		for j := k + 1; j < n; j++ {
			if nz[pr+j] != offStructure {
				st.nu++
			}
		}
		for _, r := range rows[k+1:] {
			off := int(r)*n + k
			if nz[off] == offStructure {
				continue
			}
			f.elim = append(f.elim, int32(off))
			for j := k + 1; j < n; j++ {
				if nz[pr+j] != offStructure {
					f.upd = append(f.upd, int32(int(r)*n+j), int32(pr+j))
				}
			}
		}
		st.elimEnd = int32(len(f.elim))
	}
	// Entries outside the structure must read +0 in every replay.
	for i := range f.w {
		f.w[i] = 0
	}
	f.planned = true
}

// FactorsForTest returns the last factorisation in LU's layout — the
// matrix FactorInto leaves and its pivot sequence — and whether the
// plan produced it. A planned factorisation is materialised: entries
// outside the structure are +0, except in L, where FactorInto stores
// (+0)·(1/pivot), the sign of the column's pivot. It exists for
// differential tests against LU outside this package.
func (f *PatternLU) FactorsForTest() (lu *Matrix, pivot []int, replayed bool) {
	if f.useDense {
		lu, pivot = f.dense.FactorsForTest()
		return lu, pivot, false
	}
	n := f.n
	lu = NewMatrix(n, n)
	pivot = make([]int, n)
	for k, p := range f.piv {
		pivot[k] = int(p)
	}
	for i, st := range f.steps {
		for j := 0; j < n; j++ {
			off := int(st.src)*n + j
			switch {
			case f.nz[off] != offStructure:
				lu.Set(i, j, f.w[off])
			case j < i:
				lu.Set(i, j, math.Copysign(0, f.w[f.steps[j].pivot]))
			}
		}
	}
	return lu, pivot, true
}
