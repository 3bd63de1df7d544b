package markov

import (
	"context"
	"math"
	"sort"

	"samurai/internal/obs/trace"
	"samurai/internal/rng"
	"samurai/internal/trap"
	"samurai/internal/waveform"
)

// two53 scales an accept probability p into the integer lattice of
// rng.Float64: Float64() < p  ⟺  float64(Uint64()>>11) < p·2⁵³, because
// both sides differ from the original comparison only by the exact
// power-of-two scaling (p < 1 is always normal here, so p·2⁵³ neither
// overflows nor denormalises). The batch kernel uses the scaled form to
// drop one division per candidate without changing a single accept
// decision.
const two53 = 1 << 53

// candChunk is the number of (inter-arrival, accept) candidate pairs
// pre-drawn per lane per rng.FillCandidates call. Over-drawing past the
// horizon is unobservable: lane child streams exist only from Start to
// Finish of one run, and entry i of a fill is a pure prefix function
// of the stream (see FillCandidates), so paths stay bit-identical to
// sequential no matter where the chunk boundaries fall.
const candChunk = 64

// BatchState is the reusable workspace of the batched uniformisation
// kernel: N traps advance in struct-of-arrays layout through one shared
// walk over the bias PWL's segments. All slices are lane-indexed and
// grow monotonically, so a steady-state Run allocates nothing beyond
// the returned paths (whose backing arrays are pre-sized from the
// previous Run's transition counts).
type BatchState struct {
	streams []rng.Stream        // lane rng, re-derived per Run via SplitInto
	comp    []trap.CompiledTrap // bias-independent trap constants
	t       []float64           // current candidate instant per lane
	filled  []bool              // current trap state per lane
	cand    []int64             // candidates drawn in [t0, tf] per lane
	acc     []int64             // accepted flips per lane
	pos     []int32             // cursor into the lane's candidate chunk
	// Pre-drawn candidate chunks, lane k at [k·candChunk, (k+1)·candChunk).
	dtBuf  []float64
	rawBuf []float64
	// Per-lane accept-threshold cache for constant-bias segments, keyed
	// on the exact bias value: thrE/thrF are the scaled thresholds
	// (λ_next/λ*)·2⁵³ for the empty and filled states at bias thrV.
	thrV   []float64
	thrE   []float64
	thrF   []float64
	hasThr []bool
	// capHint carries each lane's event count to the next Run so path
	// storage is allocated once instead of grown log-many times.
	capHint []int
	// The run between Start and Finish: its traps (for InitFilled) and
	// the paths being filled, one per lane.
	traps []trap.Trap
	paths []*Path
}

// NewBatchState returns an empty workspace; it sizes itself lazily on
// first use and can be reused across Runs of any lane count.
func NewBatchState() *BatchState { return &BatchState{} }

// grow ensures capacity for n lanes, preserving capacity hints.
func (bs *BatchState) grow(n int) {
	if len(bs.t) >= n {
		return
	}
	bs.streams = make([]rng.Stream, n)
	bs.comp = make([]trap.CompiledTrap, n)
	bs.t = make([]float64, n)
	bs.filled = make([]bool, n)
	bs.cand = make([]int64, n)
	bs.acc = make([]int64, n)
	bs.pos = make([]int32, n)
	bs.dtBuf = make([]float64, n*candChunk)
	bs.rawBuf = make([]float64, n*candChunk)
	bs.thrV = make([]float64, n)
	bs.thrE = make([]float64, n)
	bs.thrF = make([]float64, n)
	bs.hasThr = make([]bool, n)
	hints := make([]int, n)
	copy(hints, bs.capHint)
	bs.capHint = hints
}

// Run advances every trap in traps over [t0, tf] under the shared bias
// waveform and returns one path per trap. Lane k draws from
// parent.SplitInto(k), exactly as UniformiseProfile derives per-trap
// streams, and the draws it consumes for candidates inside the horizon
// are exactly the sequential kernel's (per candidate: Exp inter-arrival
// then accept uniform) — so every lane's path is bit-identical to
// Uniformise(ctx, traps[k], bias.Eval, t0, tf, parent.Split(k)).
// TestBatchMatchesSequential pins this with Float64bits comparisons.
//
// The speedup over N sequential calls comes from hoisting, not from
// changing arithmetic: candidates are pre-drawn in chunks by
// rng.FillCandidates (register-resident generator state, one math.Log
// call per candidate and nothing else), the bias PWL is walked once per
// segment for all lanes instead of through N cursors, λ* and the
// coupling prefactor are compiled once per lane (trap.CompiledTrap),
// and on constant-bias segments the two accept thresholds are computed
// once per (lane, bias value) instead of per candidate — eliminating
// both math.Exp calls and two divisions from the inner loop.
func (bs *BatchState) Run(tctx trap.Context, traps []trap.Trap, bias *waveform.PWL, t0, tf float64, parent *rng.Stream) ([]*Path, error) {
	if err := bs.Start(tctx, traps, t0, tf, parent); err != nil {
		return nil, err
	}
	bs.walk(bias, tf)
	return bs.Finish(), nil
}

// Start sets up one lane per trap over [t0, tf]: it derives the lane
// streams, compiles the traps, pre-draws the first candidate chunk and
// places each lane at its first candidate instant (the same first Exp
// draw the sequential kernel makes). Run, or AdvanceTo calls followed
// by Finish, then advance the lanes. Filled is not stored while the
// lanes advance — states strictly alternate, so Finish rebuilds it from
// InitFilled and len(Times) in one pass.
func (bs *BatchState) Start(tctx trap.Context, traps []trap.Trap, t0, tf float64, parent *rng.Stream) error {
	if tf <= t0 {
		return ErrBadInterval
	}
	if err := tctx.Validate(); err != nil {
		return err
	}
	n := len(traps)
	bs.grow(n)
	bs.traps = traps
	bs.paths = make([]*Path, n)
	for k := 0; k < n; k++ {
		parent.SplitInto(uint64(k), &bs.streams[k])
		bs.comp[k] = tctx.Compile(traps[k])
		bs.filled[k] = traps[k].InitFilled
		bs.cand[k], bs.acc[k] = 0, 0
		bs.hasThr[k] = false
		hint := bs.capHint[k]
		if hint < 8 {
			hint = 8
		}
		p := &Path{Times: make([]float64, 1, hint), End: tf}
		p.Times[0] = t0
		bs.paths[k] = p
		base := k * candChunk
		bs.streams[k].FillCandidates(bs.dtBuf[base:base+candChunk], bs.rawBuf[base:base+candChunk], bs.comp[k].Sum)
		bs.pos[k] = 0
		bs.t[k] = t0 + bs.dtBuf[base]
	}
	return nil
}

// walk advances every lane to tf through one shared walk over the bias
// PWL's segments. Region r of the PWL is:
//
//	r == 0: (-inf, T[0]], constant V[0]
//	0 < r < m: (T[r-1], T[r]], linear V[r-1]→V[r]
//	r == m: (T[m-1], +inf), constant V[m-1]
//
// matching PWL.Eval's clamp/exact-hit/interpolate branches exactly.
// sort.SearchFloat64s(T, t) returns precisely this region index.
func (bs *BatchState) walk(bias *waveform.PWL, tf float64) {
	paths := bs.paths
	n := len(paths)
	minNext := math.Inf(1)
	for _, t := range bs.t[:n] {
		if t < minNext {
			minNext = t
		}
	}
	T, V := bias.T, bias.V
	m := len(T)
	r := sort.SearchFloat64s(T, minNext)
	for minNext <= tf {
		var v0, v1, s0, s1 float64
		var isConst bool
		segEnd := tf
		switch {
		case m <= 1 || r == 0:
			v0, isConst = V[0], true
			if m > 1 && r == 0 && T[0] < segEnd {
				segEnd = T[0]
			}
		case r >= m:
			v0, isConst = V[m-1], true
		default:
			s0, s1 = T[r-1], T[r]
			v0, v1 = V[r-1], V[r]
			//lint:ignore floateq a bitwise-flat segment interpolates to exactly v0 everywhere, so the constant fast path is bit-identical
			isConst = v0 == v1
			if s1 < segEnd {
				segEnd = s1
			}
		}

		newMin := math.Inf(1)
		for k := 0; k < n; k++ {
			t := bs.t[k]
			if t <= segEnd {
				if isConst {
					t = bs.advanceConst(k, paths[k], t, segEnd, v0)
				} else {
					t = bs.advanceRamp(k, paths[k], t, segEnd, s0, s1, v0, v1)
				}
				bs.t[k] = t
			}
			if t < newMin {
				newMin = t
			}
		}
		minNext = newMin
		if minNext > tf {
			break
		}
		// Fast-forward the region index past segments no lane lands in.
		for r < m && T[r] < minNext {
			r++
		}
	}
}

// AdvanceTo advances every lane of the run begun by Start through its
// candidates up to t, thinning them at the constant gate bias v, and
// returns how many lanes are filled at t. Calls with nondecreasing t
// let a caller feed back a bias it only learns as the run proceeds,
// held constant over each window. Per candidate a lane draws and
// decides exactly as on a constant segment of Run's walk.
func (bs *BatchState) AdvanceTo(t, v float64) int {
	filled := 0
	for k, p := range bs.paths {
		if bs.t[k] <= t {
			bs.t[k] = bs.advanceConst(k, p, bs.t[k], t, v)
		}
		if bs.filled[k] {
			filled++
		}
	}
	return filled
}

// Finish ends the run begun by Start and returns its paths: it
// publishes each lane's candidate counts, rebuilds the strictly
// alternating Filled sequence outside the hot loop (one cold pass
// instead of one store per candidate) and keeps each lane's event count
// as the next run's capacity hint.
func (bs *BatchState) Finish() []*Path {
	paths := bs.paths
	for k, p := range paths {
		publishPath(bs.comp[k].Sum, bs.cand[k], bs.acc[k])
		p.Filled = make([]bool, len(p.Times))
		f := bs.traps[k].InitFilled
		p.Filled[0] = f
		for i := 1; i < len(p.Filled); i++ {
			f = !f
			p.Filled[i] = f
		}
		bs.capHint[k] = len(p.Times) + 8
	}
	bs.traps, bs.paths = nil, nil
	return paths
}

// advanceConst drains lane k's candidates up to segEnd under constant
// bias v. The two accept thresholds (one per trap state) are computed
// once per bias value and cached, so the candidate loop per pre-drawn
// candidate is one compare, one add and the (amortised) path append.
//
//lint:hot
func (bs *BatchState) advanceConst(k int, p *Path, t, segEnd, v float64) float64 {
	ct := bs.comp[k]
	//lint:ignore floateq threshold cache keyed on the exact bias value; a miss only costs a recompute
	if !bs.hasThr[k] || bs.thrV[k] != v {
		lc, le := ct.Rates(v)
		bs.thrE[k] = lc / ct.Sum * two53
		bs.thrF[k] = le / ct.Sum * two53
		bs.thrV[k] = v
		bs.hasThr[k] = true
	}
	var thrs [2]float64
	thrs[0], thrs[1] = bs.thrE[k], bs.thrF[k]
	sum := ct.Sum
	base := k * candChunk
	dt := bs.dtBuf[base : base+candChunk : base+candChunk]
	raw := bs.rawBuf[base : base+candChunk : base+candChunk]
	pos := int(bs.pos[k])
	times := p.Times
	fi := 0
	if bs.filled[k] {
		fi = 1
	}
	cand, acc := bs.cand[k], bs.acc[k]
	for t <= segEnd {
		cand++
		// Branchless accept: the decision is a coin flip near 50% in
		// active-trap scenarios, so a conditional append mispredicts on
		// every other candidate. Instead the time is stored
		// unconditionally and the slice is re-lengthened by the 0/1
		// accept outcome — a store plus arithmetic, no data-dependent
		// branch. t is monotone and the state strictly alternates, so
		// the (possibly discarded) store is always safe. The &-masks are
		// no-ops (pos stays in [0, candChunk)) that let the compiler
		// drop the bounds checks on the chunk accesses.
		a := 0
		if raw[pos&(candChunk-1)] < thrs[fi&1] {
			a = 1
		}
		//lint:ignore hotalloc path storage is pre-sized from the previous Run's capHint, so a growing append here is a first-Run (or hint-miss) event, not steady-state
		times = append(times, t)
		times = times[:len(times)-1+a]
		fi ^= a
		pos++
		if pos == candChunk {
			bs.streams[k].FillCandidates(dt, raw, sum)
			pos = 0
		}
		t += dt[pos&(candChunk-1)]
	}
	acc += int64(len(times) - len(p.Times))
	p.Times = times
	bs.pos[k] = int32(pos)
	bs.filled[k] = fi == 1
	bs.cand[k], bs.acc[k] = cand, acc
	return t
}

// advanceRamp drains lane k's candidates up to segEnd across one linear
// bias segment (s0, s1] ramping v0→v1. The bias at each candidate is
// interpolated with PWL.Eval's exact formula (including the exact-hit
// branch at s1), and the rates come from the compiled trap — same
// arithmetic as Context.Rates minus the two per-candidate math.Exp
// calls hidden in RateSum and ThermalEnergyEV.
//
//lint:hot
func (bs *BatchState) advanceRamp(k int, p *Path, t, segEnd, s0, s1, v0, v1 float64) float64 {
	ct := bs.comp[k]
	sum := ct.Sum
	base := k * candChunk
	dt := bs.dtBuf[base : base+candChunk : base+candChunk]
	raw := bs.rawBuf[base : base+candChunk : base+candChunk]
	pos := int(bs.pos[k])
	times := p.Times
	fi := 0
	if bs.filled[k] {
		fi = 1
	}
	cand, acc := bs.cand[k], bs.acc[k]
	for t <= segEnd {
		cand++
		var v float64
		//lint:ignore floateq exact-hit branch mirrors waveform.PWL.Eval bit-for-bit
		if t == s1 {
			v = v1
		} else {
			frac := (t - s0) / (s1 - s0)
			v = v0 + frac*(v1-v0)
		}
		lc, le := ct.Rates(v)
		lam := lc
		if fi == 1 {
			lam = le
		}
		// Branchless accept — see advanceConst.
		a := 0
		if raw[pos&(candChunk-1)] < lam/sum*two53 {
			a = 1
		}
		//lint:ignore hotalloc amortised append into capHint-sized storage; ramp segments see the same hint as the constant path
		times = append(times, t)
		times = times[:len(times)-1+a]
		fi ^= a
		pos++
		if pos == candChunk {
			bs.streams[k].FillCandidates(dt, raw, sum)
			pos = 0
		}
		t += dt[pos&(candChunk-1)]
	}
	acc += int64(len(times) - len(p.Times))
	p.Times = times
	bs.pos[k] = int32(pos)
	bs.filled[k] = fi == 1
	bs.cand[k], bs.acc[k] = cand, acc
	return t
}

// UniformiseProfileBatch advances every trap of a profile over [t0, tf]
// as one batch: identical paths to UniformiseProfile (lane k ≡ Split(k)
// sequential), one shared segment walk. One-shot convenience over
// BatchState.Run; loops that simulate many profiles should hold a
// BatchState and call Run to reuse the workspace.
func UniformiseProfileBatch(pr trap.Profile, bias *waveform.PWL, t0, tf float64, r *rng.Stream) ([]*Path, error) {
	return NewBatchState().Run(pr.Ctx, pr.Traps, bias, t0, tf, r)
}

// UniformiseProfileBatchCtx is UniformiseProfileBatch under a traced
// context: the whole profile simulation is wrapped in a
// markov.uniformise span (nested under whatever span tree ctx
// carries). The span only measures — the paths are bit-identical to
// UniformiseProfileBatch's for the same stream.
func UniformiseProfileBatchCtx(ctx context.Context, pr trap.Profile, bias *waveform.PWL, t0, tf float64, r *rng.Stream) ([]*Path, error) {
	_, span := trace.Start(ctx, "markov.uniformise")
	defer span.End()
	return UniformiseProfileBatch(pr, bias, t0, tf, r)
}
