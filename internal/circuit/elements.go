package circuit

import (
	"fmt"
	"math"

	"samurai/internal/device"
	"samurai/internal/num"
	"samurai/internal/waveform"
)

// Method selects the implicit integration scheme for transient runs.
type Method int

const (
	// BackwardEuler is L-stable and the robust default for the stiff,
	// strongly nonlinear SRAM write transients.
	BackwardEuler Method = iota
	// Trapezoidal is A-stable and second-order accurate; preferred for
	// the validation circuits where waveform fidelity matters.
	Trapezoidal
)

// String names the method for logs and tables.
func (m Method) String() string {
	if m == Trapezoidal {
		return "trapezoidal"
	}
	return "backward-euler"
}

// stampCtx carries everything an element needs to contribute to one
// Newton iteration of one (DC or transient) solve. Elements stamp
// through addA/addB into the dense MNA matrix and RHS.
//
// The first stamping pass freezes the MNA pattern. The pattern is
// identical for every iteration and timestep — element order is fixed
// and each element's A-coordinates depend only on circuit topology (the
// DC and transient capacitor stamps hit the same positions; only the
// RHS differs) — so one recording serves the whole life of the context,
// and a stamp that leaves it (a topology bug) fails loudly.
type stampCtx struct {
	// While recording, addA marks each entry it touches in onPat;
	// finishRecording turns the marks into pat, the ascending row-major
	// offsets of the structural entries (row i's are
	// pat[patRow[i]:patRow[i+1]]), and builds the frozen-pattern LU over
	// them. Afterwards addA panics on an unmarked entry, so every entry
	// outside pat stays +0.
	a         *num.Matrix // MNA matrix, Size×Size
	plu       *num.PatternLU
	recording bool // first stamping pass
	onPat     []bool
	pat       []int32
	patRow    []int32

	b      []float64 // RHS
	x      []float64 // current Newton iterate
	nNodes int       // node-voltage unknowns; branch k is nNodes+k
	time   float64   // evaluation time (end of step for implicit)
	dt     float64   // step size; 0 means DC
	method Method
	gmin   float64 // conductance to ground on every node
	// mos holds one evaluation memo per MOSFET (indexed by
	// mosfetElem.k): during holds a cell's terminal voltages repeat
	// bit for bit between iterations and steps.
	mos []mosMemo
	// Persistent per-solve scratch: the candidate iterate and the
	// residual column are owned by the context so Newton iterations
	// never allocate (see DESIGN.md, hot-path memory discipline).
	xNew  []float64
	resid []float64
}

// MaxUnknowns is the largest MNA system the solver accepts. A solve
// context holds the dense matrix, its pattern marks and the PatternLU
// workspace: about 26 bytes per matrix entry, 26 MB at this size. Up to
// it the dense path measured within 2× of a sparse LU's time on RC
// ladders and meshes; the methodology's cells have 12 unknowns. A
// larger circuit is refused rather than solved slowly.
const MaxUnknowns = 1000

// newStampCtx builds a solve context with all workspaces preallocated
// for the circuit's current size. It refuses a circuit above
// MaxUnknowns before allocating anything.
func newStampCtx(c *Circuit, opt Options) (*stampCtx, error) {
	n := c.Size()
	if n > MaxUnknowns {
		return nil, fmt.Errorf("%w: %d unknowns, limit %d", ErrTooLarge, n, MaxUnknowns)
	}
	return &stampCtx{
		a:         num.NewMatrix(n, n),
		onPat:     make([]bool, n*n),
		recording: true,
		b:         make([]float64, n),
		x:         make([]float64, n),
		nNodes:    len(c.nodeNames),
		method:    opt.Method,
		gmin:      gmin,
		mos:       make([]mosMemo, len(c.mosfets)),
		xNew:      make([]float64, n),
		resid:     make([]float64, n),
	}, nil
}

// addA accumulates v into MNA matrix position (i, j).
func (st *stampCtx) addA(i, j int, v float64) {
	off := i*st.a.Cols + j
	if !st.onPat[off] {
		st.markPattern(off)
	}
	st.a.Data[off] += v
}

// markPattern adds an entry to the pattern being recorded; after the
// first pass it is a stamp outside the frozen pattern.
func (st *stampCtx) markPattern(off int) {
	if !st.recording {
		panic("circuit: stamp outside the recorded pattern")
	}
	st.onPat[off] = true
}

// addB accumulates v into RHS position i.
func (st *stampCtx) addB(i int, v float64) {
	st.b[i] += v
}

// beginStamp resets the assembly state for one Newton iteration. Once
// the pattern is frozen only its entries can be nonzero, so only they
// are cleared.
//
//lint:hot
func (st *stampCtx) beginStamp() {
	if st.pat != nil {
		for _, off := range st.pat {
			st.a.Data[off] = 0
		}
	} else {
		st.a.Zero()
	}
	for i := range st.b {
		st.b[i] = 0
	}
}

// factor factorises the assembled matrix. The first call freezes the
// recorded pattern; afterwards addA already refuses an entry outside
// it.
func (st *stampCtx) factor() error {
	if st.recording {
		st.finishRecording()
	}
	return st.plu.FactorInto(st.a)
}

// finishRecording freezes the marked entries into the pattern lists
// and builds the frozen-pattern LU over them.
func (st *stampCtx) finishRecording() {
	n := st.a.Rows
	nnz := 0
	for _, on := range st.onPat {
		if on {
			nnz++
		}
	}
	buf := make([]int32, nnz+n+1)
	st.pat, st.patRow = buf[:0:nnz], buf[nnz:]
	for i := 0; i < n; i++ {
		st.patRow[i] = int32(len(st.pat))
		for j := 0; j < n; j++ {
			if st.onPat[i*n+j] {
				st.pat = append(st.pat, int32(i*n+j))
			}
		}
	}
	st.patRow[n] = int32(len(st.pat))
	st.plu = num.NewPatternLU(n, st.pat)
	st.recording = false
}

// residualOK verifies the accepted Newton step actually solves the
// linear system it was computed from: ‖A·x − b‖∞ ≤ tol·max(1, ‖A‖·‖x‖).
// The scaling makes this a backward-stability guard: a healthy
// factorisation leaves rounding-sized residuals many orders below the
// bound even when the matrix carries huge companion conductances (a
// drift-clamped femto-step puts C/dt ~ 1e9 in A), so it never perturbs
// a converged solve — while a silently wrong step from an
// ill-conditioned factorisation has residual ~‖A‖·‖x‖ itself and is
// rejected.
//
// The product and ‖A‖ run over the frozen pattern only. For finite x
// every skipped term is (+0)·x = ±0 added to a row sum that starts at
// +0 and so is never −0, and an entry of +0 cannot raise the max, so
// the verdict is the full product's bit for bit; a non-finite x takes
// the full product, where 0·Inf = NaN matters.
//
//lint:hot
func (st *stampCtx) residualOK(tol float64) bool {
	if finite(st.xNew) {
		return st.patternResidual() <= tol*residualScale(st.patternMaxAbs(), st.xNew)
	}
	st.a.MulVecInto(st.resid, st.xNew)
	num.SubInto(st.resid, st.resid, st.b)
	return num.VecNormInf(st.resid) <= tol*residualScale(st.a.MaxAbs(), st.xNew)
}

// residualScale is max(1, maxA·‖x‖∞), residualOK's bound scale.
func residualScale(maxA float64, x []float64) float64 {
	scale := maxA * num.VecNormInf(x)
	if scale < 1 {
		scale = 1
	}
	return scale
}

// patternResidual returns ‖A·xNew − b‖∞ with the product summed over
// the frozen dense pattern, row by row in ascending column order.
//
//lint:hot
func (st *stampCtx) patternResidual() float64 {
	a, x := st.a.Data, st.xNew
	n := len(x)
	var norm float64
	for i, bi := range st.b {
		s := 0.0
		base := int32(i * n)
		for _, off := range st.pat[st.patRow[i]:st.patRow[i+1]] {
			s += a[off] * x[off-base]
		}
		if r := math.Abs(s - bi); r > norm {
			norm = r
		}
	}
	return norm
}

// patternMaxAbs returns the largest |entry| of A over the frozen dense
// pattern: the full matrix's MaxAbs, since every other entry is +0.
//
//lint:hot
func (st *stampCtx) patternMaxAbs() float64 {
	var mx float64
	for _, off := range st.pat {
		if v := math.Abs(st.a.Data[off]); v > mx {
			mx = v
		}
	}
	return mx
}

// finite reports whether every entry of x is finite.
func finite(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v - v) {
			return false
		}
	}
	return true
}

// element is the internal per-device interface. stamp adds the
// element's linearised contribution; advance commits per-element state
// after an accepted timestep.
type element interface {
	name() string
	stamp(st *stampCtx)
	advance(st *stampCtx)
}

// --- resistor -------------------------------------------------------

type resistorElem struct {
	id   string
	a, b int
	g    float64
}

func (r *resistorElem) name() string { return r.id }

func (r *resistorElem) stamp(st *stampCtx) {
	stampConductance(st, r.a, r.b, r.g)
}

func (r *resistorElem) advance(*stampCtx) {}

func stampConductance(st *stampCtx, a, b int, g float64) {
	if a >= 0 {
		st.addA(a, a, g)
	}
	if b >= 0 {
		st.addA(b, b, g)
	}
	if a >= 0 && b >= 0 {
		st.addA(a, b, -g)
		st.addA(b, a, -g)
	}
}

// stampCurrent injects current i flowing out of node a into node b
// (i.e. adds +i to b's KCL inflow and −i to a's).
func stampCurrent(st *stampCtx, a, b int, i float64) {
	if a >= 0 {
		st.addB(a, -i)
	}
	if b >= 0 {
		st.addB(b, i)
	}
}

// --- capacitor ------------------------------------------------------

type capacitorElem struct {
	id    string
	a, b  int
	c     float64
	vPrev float64 // branch voltage at the last accepted step
	iPrev float64 // branch current at the last accepted step (TRAP)
	init  bool
}

func (e *capacitorElem) name() string { return e.id }

func (e *capacitorElem) stamp(st *stampCtx) {
	if st.dt == 0 {
		// DC: open circuit. A tiny conductance keeps otherwise
		// cap-only nodes non-singular.
		stampConductance(st, e.a, e.b, 1e-12)
		return
	}
	var geq, ieq float64
	switch st.method {
	case Trapezoidal:
		geq = 2 * e.c / st.dt
		ieq = geq*e.vPrev + e.iPrev
	default: // backward Euler
		geq = e.c / st.dt
		ieq = geq * e.vPrev
	}
	// Companion model: i = geq·v − ieq, i.e. a conductance in
	// parallel with a history current source pushing ieq from b to a.
	stampConductance(st, e.a, e.b, geq)
	stampCurrent(st, e.b, e.a, ieq)
}

func (e *capacitorElem) advance(st *stampCtx) {
	v := voltage(st.x, e.a) - voltage(st.x, e.b)
	if st.dt == 0 {
		e.vPrev = v
		e.iPrev = 0
		e.init = true
		return
	}
	switch st.method {
	case Trapezoidal:
		geq := 2 * e.c / st.dt
		i := geq*(v-e.vPrev) - e.iPrev
		e.iPrev = i
	default:
		// iPrev unused by BE; keep it for method switches mid-run.
		e.iPrev = e.c / st.dt * (v - e.vPrev)
	}
	e.vPrev = v
	e.init = true
}

// --- voltage source -------------------------------------------------

type vsourceElem struct {
	id     string
	p, n   int
	w      *waveform.PWL
	cur    waveform.Cursor // monotone-sweep accelerator over w
	branch int
}

func (e *vsourceElem) name() string { return e.id }

func (e *vsourceElem) stamp(st *stampCtx) {
	br := st.nNodes + e.branch
	if e.p >= 0 {
		st.addA(e.p, br, 1)
		st.addA(br, e.p, 1)
	}
	if e.n >= 0 {
		st.addA(e.n, br, -1)
		st.addA(br, e.n, -1)
	}
	st.addB(br, e.cur.Eval(st.time))
}

func (e *vsourceElem) advance(*stampCtx) {}

// --- current source -------------------------------------------------

type isourceElem struct {
	id   string
	p, n int
	w    *waveform.PWL
	cur  waveform.Cursor // monotone-sweep accelerator over w
}

func (e *isourceElem) name() string { return e.id }

func (e *isourceElem) stamp(st *stampCtx) {
	stampCurrent(st, e.p, e.n, e.cur.Eval(st.time))
}

func (e *isourceElem) advance(*stampCtx) {}

// --- MOSFET ---------------------------------------------------------

type mosfetElem struct {
	id      string
	d, g, s int
	p       device.MOSParams
	dev     device.CompiledMOS // p compiled once at AddMOSFET
	k       int                // index in Circuit.mosfets and stampCtx.mos
}

func (e *mosfetElem) name() string { return e.id }

func (e *mosfetElem) stamp(st *stampCtx) {
	vd := voltage(st.x, e.d)
	vg := voltage(st.x, e.g)
	vs := voltage(st.x, e.s)
	op := st.mos[e.k].eval(&e.dev, vg-vs, vd-vs)
	// Linearised channel current entering the drain:
	// i_d ≈ Ids + gm·(Δvgs) + gds·(Δvds)
	// Stamp the Jacobian and the history current
	// ieq = Ids − gm·vgs0 − gds·vds0.
	ieq := op.Ids - op.Gm*(vg-vs) - op.Gds*(vd-vs)
	if e.d >= 0 {
		st.addA(e.d, e.d, op.Gds)
		if e.g >= 0 {
			st.addA(e.d, e.g, op.Gm)
		}
		if e.s >= 0 {
			st.addA(e.d, e.s, -(op.Gm + op.Gds))
		}
		st.addB(e.d, -ieq)
	}
	if e.s >= 0 {
		st.addA(e.s, e.s, op.Gm+op.Gds)
		if e.g >= 0 {
			st.addA(e.s, e.g, -op.Gm)
		}
		if e.d >= 0 {
			st.addA(e.s, e.d, -op.Gds)
		}
		st.addB(e.s, ieq)
	}
}

func (e *mosfetElem) advance(*stampCtx) {}

// opAt evaluates the device operating point from a solution vector.
func (e *mosfetElem) opAt(x []float64) device.OpPoint {
	vd := voltage(x, e.d)
	vg := voltage(x, e.g)
	vs := voltage(x, e.s)
	return e.dev.Eval(vg-vs, vd-vs)
}

// mosMemo is a one-slot evaluation memo for one MOSFET: the bit
// patterns of the last (vgs, vds) it evaluated and their operating
// point. It serves one property — a device's terminal voltages
// repeating bit for bit between consecutive evaluations, as they do
// while a cell holds — and costs one compare otherwise. The key is the
// bit pattern, not ==: Eval(vgs, −0) returns Ids = −0 where
// Eval(vgs, +0) returns +0.
type mosMemo struct {
	vgs, vds uint64
	ok       bool
	op       device.OpPoint
}

// eval returns d.Eval(vgs, vds), reusing the last result when both
// arguments repeat bit for bit.
func (m *mosMemo) eval(d *device.CompiledMOS, vgs, vds float64) *device.OpPoint {
	bg, bd := math.Float64bits(vgs), math.Float64bits(vds)
	if !m.ok || bg != m.vgs || bd != m.vds {
		m.op = d.Eval(vgs, vds)
		m.vgs, m.vds, m.ok = bg, bd, true
	}
	return &m.op
}
