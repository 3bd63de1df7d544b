package circuit

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"samurai/internal/obs/trace"
	"samurai/internal/waveform"
)

// Options tunes the nonlinear solver and transient integrator. The zero
// value is completed by Defaults (applied automatically).
type Options struct {
	// MaxNewton is the Newton iteration cap per solve.
	MaxNewton int
	// VTol is the node-voltage convergence tolerance, V.
	VTol float64
	// ResTol is the KCL residual tolerance, A.
	ResTol float64
	// MaxStepV limits the per-iteration voltage update (damping), V.
	MaxStepV float64
	// Gmin is the convergence-aid conductance from every node to
	// ground.
	Gmin float64
	// Method selects the transient integration scheme.
	Method Method
	// Solver selects the linear-algebra backend for the MNA system.
	// The zero value (SolverAuto) picks dense for small circuits and
	// sparse for array-scale ones.
	Solver Solver
	// Ctx, when non-nil, cancels a transient analysis between steps:
	// Runner.Step returns the wrapped ctx error as soon as the
	// cancellation is observed. The sampled solution up to that point
	// is unaffected — cancellation can only abort a run early, never
	// perturb its numbers.
	Ctx context.Context
}

// Defaults fills unset fields with robust values.
func (o Options) Defaults() Options {
	if o.MaxNewton == 0 {
		o.MaxNewton = 200
	}
	if o.VTol == 0 {
		o.VTol = 1e-6
	}
	if o.ResTol == 0 {
		o.ResTol = 1e-9
	}
	if o.MaxStepV == 0 {
		o.MaxStepV = 0.5
	}
	if o.Gmin == 0 {
		o.Gmin = 1e-12
	}
	return o
}

// Solver selects the linear-algebra backend used for the MNA system.
type Solver int

const (
	// SolverAuto picks dense below sparseAutoThreshold unknowns and
	// sparse at or above it.
	SolverAuto Solver = iota
	// SolverDense forces the dense LU path regardless of size.
	SolverDense
	// SolverSparse forces the sparse LU path regardless of size.
	SolverSparse
)

// sparseAutoThreshold is the unknown count at which SolverAuto switches
// from dense to sparse. A 6T cell plus drivers is ~15 unknowns — dense
// wins there by avoiding all indexing indirection — while even the
// smallest shared-bitline array (8×8 ≈ 200+ unknowns) factors orders of
// magnitude faster sparse. The crossover sits well between the two.
const sparseAutoThreshold = 50

// useSparse reports whether a circuit with n unknowns should use the
// sparse backend under these options.
func (o Options) useSparse(n int) bool {
	switch o.Solver {
	case SolverDense:
		return false
	case SolverSparse:
		return true
	default:
		return n >= sparseAutoThreshold
	}
}

// ErrNoConvergence is returned when Newton iteration fails to settle.
var ErrNoConvergence = errors.New("circuit: Newton iteration did not converge")

// newtonSolve runs damped Newton–Raphson at a fixed time/step,
// overwriting st.x with the solution. Iteration counts are published to
// the solver metrics once per call (never inside the loop). The LU
// factorisation and the candidate iterate live in the stampCtx, so the
// iteration allocates nothing.
//
//lint:hot
func (c *Circuit) newtonSolve(st *stampCtx, opt Options) error {
	n := c.Size()
	mNewtonSolves.Inc()
	for iter := 0; iter < opt.MaxNewton; iter++ {
		st.beginStamp()
		for _, e := range c.elems {
			e.stamp(st)
		}
		// gmin on every node keeps the Jacobian nonsingular when
		// devices are fully off.
		for i := 0; i < st.nNodes; i++ {
			st.addA(i, i, st.gmin)
		}
		if err := st.factor(); err != nil {
			return fmt.Errorf("circuit: singular MNA matrix (floating node or source loop?): %w", err)
		}
		xNew := st.xNew
		copy(xNew, st.b)
		st.solveInPlace(xNew)
		// Damp node-voltage updates; branch currents move freely.
		maxDv := 0.0
		for i := 0; i < st.nNodes; i++ {
			dv := xNew[i] - st.x[i]
			if a := math.Abs(dv); a > maxDv {
				maxDv = a
			}
		}
		scale := 1.0
		if maxDv > opt.MaxStepV {
			scale = opt.MaxStepV / maxDv
		}
		for i := 0; i < n; i++ {
			if i < st.nNodes {
				st.x[i] += scale * (xNew[i] - st.x[i])
			} else {
				st.x[i] = xNew[i]
			}
		}
		//lint:ignore floateq scale is exactly the literal 1.0 whenever no damping step-limit was applied
		if scale == 1.0 && maxDv < opt.VTol {
			// Voltage convergence alone can be fooled by a bad linear
			// solve; only accept the iterate if it also satisfies the
			// system it came from to within the KCL residual tolerance.
			if st.residualOK(opt.ResTol) {
				mNewtonIterations.Add(int64(iter + 1))
				return nil
			}
		}
	}
	mNewtonIterations.Add(int64(opt.MaxNewton))
	mNewtonFailures.Inc()
	return ErrNoConvergence
}

// OperatingPoint computes the DC solution with capacitors open. guess,
// if non-nil, seeds the Newton iteration — essential for bistable
// circuits like the SRAM cell, where the seed selects the stable state.
// The returned map holds every non-ground node voltage.
func (c *Circuit) OperatingPoint(guess map[string]float64, opt Options) (map[string]float64, error) {
	opt = opt.Defaults()
	st := newStampCtx(c, opt)
	for name, v := range guess {
		if idx, ok := c.nodeIndex[name]; ok && idx >= 0 {
			st.x[idx] = v
		}
	}
	// gmin stepping: start with a heavy convergence aid and relax it.
	// Once two consecutive levels agree within VTol on every node the
	// ladder has converged and the remaining (easier) levels are
	// skipped — they could only move the solution by less than the
	// tolerance again.
	prev := make([]float64, st.nNodes)
	for li, g := range []float64{1e-3, 1e-6, 1e-9, opt.Gmin} {
		st.gmin = g
		if err := c.newtonSolve(st, opt); err != nil {
			return nil, err
		}
		if li > 0 {
			settled := true
			for i := 0; i < st.nNodes; i++ {
				if math.Abs(st.x[i]-prev[i]) >= opt.VTol {
					settled = false
					break
				}
			}
			if settled {
				break
			}
		}
		copy(prev, st.x[:st.nNodes])
	}
	for _, e := range c.elems {
		e.advance(st)
	}
	out := map[string]float64{}
	for i, name := range c.nodeNames {
		out[name] = st.x[i]
	}
	return out, nil
}

// TransientResult holds the sampled solution of a transient run: the
// node voltages and source currents at every accepted step. MOSFET
// biases are not recorded; DeviceBias derives them from the node
// voltages on demand.
type TransientResult struct {
	Times []float64
	// V maps node name → voltage samples aligned with Times.
	V map[string][]float64
	// SourceI maps voltage-source name → branch-current samples (the
	// MNA branch unknowns, flowing from the + terminal through the
	// source to the − terminal). Supply-current integrals give write
	// energy and similar power metrics.
	SourceI map[string][]float64
	// nodes holds the V columns by node index and mosfets the
	// circuit's devices, both for DeviceBias.
	nodes   [][]float64
	mosfets []*mosfetElem
}

// Voltage returns the PWL waveform of a node.
func (r *TransientResult) Voltage(node string) (*waveform.PWL, error) {
	vs, ok := r.V[node]
	if !ok {
		return nil, fmt.Errorf("circuit: node %q not recorded", node)
	}
	return waveform.New(r.Times, vs)
}

// SourceCurrent returns the branch-current waveform of a voltage
// source.
func (r *TransientResult) SourceCurrent(name string) (*waveform.PWL, error) {
	is, ok := r.SourceI[name]
	if !ok {
		return nil, fmt.Errorf("circuit: source %q not recorded", name)
	}
	return waveform.New(r.Times, is)
}

// DeviceBias returns the (Vgs, Id) waveforms of a MOSFET — the inputs
// SAMURAI's trace generator needs for that device. It evaluates the
// device at every recorded sample from the node voltages, exactly as
// the solver would at that solution (Eval is pure in the voltages, so
// the samples are the ones a per-step recording would have held). Each
// call allocates its two columns and touches no shared mutable state,
// so concurrent calls on one result are safe.
func (r *TransientResult) DeviceBias(name string) (vgs, id *waveform.PWL, err error) {
	var m *mosfetElem
	for _, e := range r.mosfets {
		if e.id == name {
			m = e
			break
		}
	}
	if m == nil {
		return nil, nil, fmt.Errorf("circuit: device %q not recorded", name)
	}
	col := func(idx int) []float64 {
		if idx < 0 {
			return nil
		}
		return r.nodes[idx]
	}
	cd, cg, cs := col(m.d), col(m.g), col(m.s)
	gv := make([]float64, len(r.Times))
	iv := make([]float64, len(r.Times))
	var memo mosMemo
	for k := range gv {
		vd, vg, vs := sample(cd, k), sample(cg, k), sample(cs, k)
		gv[k] = vg - vs
		iv[k] = memo.eval(&m.dev, vg-vs, vd-vs).Ids
	}
	vgs, err = waveform.New(r.Times, gv)
	if err != nil {
		return nil, nil, err
	}
	id, err = waveform.New(r.Times, iv)
	return vgs, id, err
}

// sample reads sample k of a node column; a nil column is ground, 0 V.
func sample(col []float64, k int) float64 {
	if col == nil {
		return 0
	}
	return col[k]
}

// TransientSpec describes a transient analysis.
type TransientSpec struct {
	T0, T1 float64
	// Dt is the fixed timestep.
	Dt float64
	// UIC, when true, skips the DC operating point and starts from the
	// provided InitialV (SPICE's "use initial conditions"). Nodes not
	// listed start at 0.
	UIC      bool
	InitialV map[string]float64
	Options  Options
}

// Runner advances a transient analysis one step at a time. It exists so
// that higher layers can co-simulate with the circuit — the
// bidirectionally-coupled RTN mode updates trap states and RTN source
// values between steps (paper future-work #1).
type Runner struct {
	c   *Circuit
	st  *stampCtx
	opt Options
	res *TransientResult
	t   float64
	t1  float64
	// saved backs up st.x across a trial step so a rejected Newton
	// solve can be rolled back without allocating. The recursive
	// sub-stepping in advanceTo may overwrite it, but every frame is
	// done reading the buffer before it recurses, so one per runner
	// suffices.
	saved []float64
	// Recording columns, resolved once at NewRunner and preallocated to
	// the expected sample count (at most maxPrealloc). record() only
	// index-assigns into them; the name-keyed TransientResult maps are
	// refreshed by Result().
	n         int       // samples recorded so far
	times     []float64 // sample instants
	nodeCols  [][]float64
	srcNames  []string // voltage sources in recording order
	srcBranch []int
	srcCols   [][]float64
}

// maxPrealloc bounds the samples NewRunner preallocates per recording
// column. Longer runs grow through growRecording, so a huge step count
// costs memory only as its samples arrive. It sits far above every
// transient the methodology and its benchmarks run (a 6T write pattern
// is a few thousand steps).
const maxPrealloc = 1 << 20

// NewRunner initialises a transient analysis (performing the DC
// operating point unless spec.UIC is set) and records the initial
// state.
func (c *Circuit) NewRunner(spec TransientSpec) (*Runner, error) {
	opt := spec.Options.Defaults()
	for _, v := range [...]float64{spec.T0, spec.T1, spec.Dt} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("circuit: transient needs finite T0, T1 and Dt (got %g, %g, %g)", spec.T0, spec.T1, spec.Dt)
		}
	}
	if spec.Dt <= 0 || spec.T1 <= spec.T0 {
		return nil, errors.New("circuit: transient needs T1 > T0 and Dt > 0")
	}
	st := newStampCtx(c, opt)
	st.time = spec.T0
	if spec.UIC {
		for name, v := range spec.InitialV {
			if idx, ok := c.nodeIndex[name]; ok && idx >= 0 {
				st.x[idx] = v
			}
		}
	} else {
		op, err := c.OperatingPoint(spec.InitialV, opt)
		if err != nil {
			return nil, fmt.Errorf("circuit: transient DC seed failed: %w", err)
		}
		for name, v := range op {
			st.x[c.nodeIndex[name]] = v
		}
		// One in-place DC solve so the branch-current unknowns (which
		// OperatingPoint does not return) are consistent at the first
		// recorded sample.
		if err := c.newtonSolve(st, opt); err != nil {
			return nil, fmt.Errorf("circuit: transient DC seed failed: %w", err)
		}
	}
	// Initialise per-element history from the starting point.
	st.dt = 0
	for _, e := range c.elems {
		e.advance(st)
	}
	mTransientRuns.Inc()
	r := &Runner{
		c: c, st: st, opt: opt, t: spec.T0, t1: spec.T1,
		saved: make([]float64, c.Size()),
		res: &TransientResult{
			V:       map[string][]float64{},
			SourceI: map[string][]float64{},
			nodes:   make([][]float64, len(c.nodeNames)),
			mosfets: c.mosfets,
		},
	}
	// One sample per step plus the initial state; growRecording covers
	// the rare extra step introduced by floating-point drift of t, and
	// any run longer than maxPrealloc samples.
	capHint := maxPrealloc
	if steps := math.Ceil((spec.T1 - spec.T0) / spec.Dt); steps < maxPrealloc {
		capHint = int(steps) + 1
	}
	r.times = make([]float64, capHint)
	r.nodeCols = makeCols(len(c.nodeNames), capHint)
	r.srcNames = make([]string, 0, len(c.vsources))
	for name := range c.vsources {
		r.srcNames = append(r.srcNames, name)
	}
	sort.Strings(r.srcNames)
	r.srcBranch = make([]int, len(r.srcNames))
	for i, name := range r.srcNames {
		r.srcBranch[i] = c.vsources[name].branch
	}
	r.srcCols = makeCols(len(r.srcNames), capHint)
	r.record()
	return r, nil
}

// makeCols allocates n column buffers of the given length.
func makeCols(n, length int) [][]float64 {
	cols := make([][]float64, n)
	for i := range cols {
		cols[i] = make([]float64, length)
	}
	return cols
}

// Time returns the current simulation time.
func (r *Runner) Time() float64 { return r.t }

// MatrixNNZ reports the number of structural nonzeros in the MNA
// matrix pattern: the frozen CSR pattern size on the sparse backend,
// n² on the dense one. The sparse pattern exists once the first solve
// has stamped (NewRunner's DC seed or first step); before that it
// reports 0.
func (r *Runner) MatrixNNZ() int {
	if r.st.a != nil {
		return r.st.a.Rows * r.st.a.Cols
	}
	if r.st.sp == nil {
		return 0
	}
	return r.st.sp.NNZ()
}

// Done reports whether the run has reached its end time.
func (r *Runner) Done() bool { return r.t >= r.t1 }

// NodeVoltage returns the present voltage of a node (0 for ground,
// an error for unknown names).
func (r *Runner) NodeVoltage(name string) (float64, error) {
	idx, ok := r.c.nodeIndex[name]
	if !ok {
		return 0, fmt.Errorf("circuit: unknown node %q", name)
	}
	return voltage(r.st.x, idx), nil
}

// DeviceOp returns the present bias (vgs, vds) and channel current of a
// MOSFET.
func (r *Runner) DeviceOp(name string) (vgs, vds, id float64, err error) {
	for _, m := range r.c.mosfets {
		if m.id == name {
			op := m.opAt(r.st.x)
			return voltage(r.st.x, m.g) - voltage(r.st.x, m.s),
				voltage(r.st.x, m.d) - voltage(r.st.x, m.s),
				op.Ids, nil
		}
	}
	return 0, 0, 0, fmt.Errorf("circuit: no MOSFET named %q", name)
}

// Step advances the analysis by dt (clamped to the end time) and
// records the solution. If Newton fails to converge at the full step,
// the step is retried as a sequence of halved sub-steps (up to 6
// levels) before giving up — strongly nonlinear transients (e.g. large
// injected RTN spikes during switching) occasionally need the shorter
// horizon.
func (r *Runner) Step(dt float64) error {
	if r.Done() {
		return errors.New("circuit: runner already at end time")
	}
	if r.opt.Ctx != nil {
		if err := r.opt.Ctx.Err(); err != nil {
			return fmt.Errorf("circuit: transient canceled at t=%.4g s: %w", r.t, err)
		}
	}
	t := r.t + dt
	if t > r.t1 {
		t = r.t1
	}
	if err := r.advanceTo(t, 0); err != nil {
		return err
	}
	r.record()
	return nil
}

//lint:hot
func (r *Runner) advanceTo(t float64, depth int) error {
	copy(r.saved, r.st.x)
	r.st.time = t
	r.st.dt = t - r.t
	if err := r.c.newtonSolve(r.st, r.opt); err != nil {
		copy(r.st.x, r.saved)
		mStepsRejected.Inc()
		if depth >= 6 {
			return fmt.Errorf("circuit: step at t=%.4g s: %w", t, err)
		}
		mid := r.t + (t-r.t)/2
		if err := r.advanceTo(mid, depth+1); err != nil {
			return err
		}
		return r.advanceTo(t, depth+1)
	}
	for _, e := range r.c.elems {
		e.advance(r.st)
	}
	mStepsAccepted.Inc()
	r.t = t
	return nil
}

//lint:hot
func (r *Runner) record() {
	k := r.n
	if k == len(r.times) {
		r.growRecording()
	}
	x := r.st.x
	r.times[k] = r.t
	for i, col := range r.nodeCols {
		col[k] = x[i]
	}
	for i, br := range r.srcBranch {
		r.srcCols[i][k] = x[r.st.nNodes+br]
	}
	r.n++
}

// growRecording doubles every recording column. It only runs when the
// NewRunner capacity estimate is exceeded (floating-point drift of the
// step accumulator), so record itself stays allocation-free.
func (r *Runner) growRecording() {
	grow := func(col []float64) []float64 {
		out := make([]float64, 2*len(col)+1)
		copy(out, col)
		return out
	}
	r.times = grow(r.times)
	for _, cols := range [][][]float64{r.nodeCols, r.srcCols} {
		for i := range cols {
			cols[i] = grow(cols[i])
		}
	}
}

// Result returns the samples recorded so far. The name-keyed maps are
// refreshed from the recording columns on each call; the returned
// slices alias the live recording buffers up to their current length,
// exactly as the previous append-based recorder did.
func (r *Runner) Result() *TransientResult {
	res := r.res
	n := r.n
	res.Times = r.times[:n]
	for i, name := range r.c.nodeNames {
		col := r.nodeCols[i][:n]
		res.V[name], res.nodes[i] = col, col
	}
	for i, name := range r.srcNames {
		res.SourceI[name] = r.srcCols[i][:n]
	}
	return res
}

// Transient runs a fixed-step implicit transient analysis and records
// every node voltage and voltage-source current at each step. When
// spec.Options.Ctx carries a trace position, the whole analysis is
// wrapped in a circuit.transient span (timing only — the solution is
// bit-identical with or without tracing).
func (c *Circuit) Transient(spec TransientSpec) (*TransientResult, error) {
	_, span := trace.Start(spec.Options.Ctx, "circuit.transient")
	defer span.End()
	r, err := c.NewRunner(spec)
	if err != nil {
		return nil, err
	}
	for !r.Done() {
		if err := r.Step(spec.Dt); err != nil {
			return nil, err
		}
	}
	return r.Result(), nil
}
