package markov

import (
	"math"

	"samurai/internal/rng"
	"samurai/internal/trap"
)

// This file is the importance-sampling variant of Algorithm 1: the
// trap is *sampled* under an energy-tilted propensity split while the
// exact likelihood ratio against the nominal law is accumulated from
// the thinning accept/reject record.
//
// The tilt is an energy shift E → E+dE on the trap's compiled
// constants (trap.CompiledTrap.Tilted). Because λ_c+λ_e is
// bias-independent (Eq 1) and the shift only re-splits the sum through
// β (Eq 2), the nominal majorant λ* remains the tilted process's exact
// majorant: candidate instants have the *same* law under both
// measures, and the two processes differ only in the per-candidate
// accept probability. The per-path Radon–Nikodym derivative therefore
// factorises over candidates:
//
//	accept at t:  p(t)/q(t)
//	reject at t:  (1−p(t))/(1−q(t))
//
// with p = λ_next(t)/λ* the nominal accept probability and
// q = λ'_next(t)/λ* the tilted one. UniformiseTilted accumulates
// log of these factors term by term; at dE = 0 the tilted constants
// are bit-identical to the nominal ones, every factor is exactly 1,
// log(1) = 0.0 exactly, and the returned path (and rng consumption)
// is bit-identical to Uniformise.

// ThinningRecord captures the full accept/reject history of one
// tilted uniformisation run: every candidate instant inside the
// horizon and whether it was accepted. The record is sufficient to
// recompute the path *and* its log-likelihood ratio post hoc
// (RecomputeLogLR), which is how the property tests pin the
// incremental accumulation to the bit.
type ThinningRecord struct {
	Times   []float64
	Accepts []bool
}

// reset clears the record for reuse.
func (tr *ThinningRecord) reset() {
	tr.Times = tr.Times[:0]
	tr.Accepts = tr.Accepts[:0]
}

// UniformiseTilted is Uniformise sampling under the energy tilt
// tiltEV while exactly accumulating the per-path log-likelihood ratio
// log(dP_nominal/dP_tilted) from the thinning record. rec, when
// non-nil, is reset and filled with the candidate history.
//
// The draw order per candidate (Exp inter-arrival, then one accept
// uniform) and all rate arithmetic (trap.CompiledTrap.Rates, pinned
// bit-identical to Context.Rates) exactly mirror Uniformise, so with
// tiltEV == 0 the returned path, the stream state and the (identically
// zero) log-LR are bit-identical to the naive kernel's.
//
//lint:hot
func UniformiseTilted(ctx trap.Context, tr trap.Trap, vgs BiasFunc, t0, tf, tiltEV float64, r *rng.Stream, rec *ThinningRecord) (*Path, float64, error) {
	if tf <= t0 {
		return nil, 0, ErrBadInterval
	}
	if err := ctx.Validate(); err != nil {
		return nil, 0, err
	}
	nom := ctx.Compile(tr)
	til := nom.Tilted(tiltEV)
	lambdaStar := nom.Sum
	if rec != nil {
		rec.reset()
	}
	p := NewPath(t0, tf, tr.InitFilled)
	filled := tr.InitFilled
	t := t0
	logLR := 0.0
	var candidates, accepts int64
	for {
		t += r.Exp(lambdaStar)
		if t > tf {
			break
		}
		candidates++
		v := vgs(t)
		lcN, leN := nom.Rates(v)
		lcT, leT := til.Rates(v)
		pN, qT := lcN/lambdaStar, lcT/lambdaStar
		if filled {
			pN, qT = leN/lambdaStar, leT/lambdaStar
		}
		accept := r.Float64() < qT
		if accept {
			p.Transition(t)
			filled = !filled
			accepts++
			logLR += math.Log(pN / qT)
		} else {
			logLR += math.Log((1 - pN) / (1 - qT))
		}
		if rec != nil {
			//lint:ignore hotalloc reset() keeps the record's capacity, so appends only grow on the first run (or a candidate-count high-water mark), not steady-state
			rec.Times = append(rec.Times, t)
			//lint:ignore hotalloc grows in lockstep with Times under the same retained capacity; reuse makes it allocation-free
			rec.Accepts = append(rec.Accepts, accept)
		}
	}
	publishPath(lambdaStar, candidates, accepts)
	return p, logLR, nil
}

// RecomputeLogLR re-derives the log-likelihood ratio of a recorded
// tilted run from its candidate history alone, using the identical
// arithmetic and accumulation order as UniformiseTilted — the two
// results must agree to the bit (TestTiltLogLRRecompute pins this).
func RecomputeLogLR(ctx trap.Context, tr trap.Trap, vgs BiasFunc, tiltEV float64, rec *ThinningRecord) float64 {
	nom := ctx.Compile(tr)
	til := nom.Tilted(tiltEV)
	lambdaStar := nom.Sum
	filled := tr.InitFilled
	logLR := 0.0
	for i, t := range rec.Times {
		v := vgs(t)
		lcN, leN := nom.Rates(v)
		lcT, leT := til.Rates(v)
		pN, qT := lcN/lambdaStar, lcT/lambdaStar
		if filled {
			pN, qT = leN/lambdaStar, leT/lambdaStar
		}
		if rec.Accepts[i] {
			filled = !filled
			logLR += math.Log(pN / qT)
		} else {
			logLR += math.Log((1 - pN) / (1 - qT))
		}
	}
	return logLR
}

// UniformiseProfileTilted simulates every trap of a profile under the
// tilt and returns the per-trap paths plus the profile's total log-LR
// (the traps are independent, so the path-ensemble likelihood ratio is
// the product — the sum in log space, accumulated in trap order).
// Trap i draws from r.SplitInto(i), the exact derivation
// UniformiseProfile and the batch kernel use, so at tiltEV == 0 the
// paths are bit-identical to both.
func UniformiseProfileTilted(pr trap.Profile, vgs BiasFunc, t0, tf, tiltEV float64, r *rng.Stream) ([]*Path, float64, error) {
	paths := make([]*Path, len(pr.Traps))
	logLR := 0.0
	var child rng.Stream
	for i, tr := range pr.Traps {
		r.SplitInto(uint64(i), &child)
		p, l, err := UniformiseTilted(pr.Ctx, tr, vgs, t0, tf, tiltEV, &child, nil)
		if err != nil {
			return nil, 0, err
		}
		paths[i] = p
		logLR += l
	}
	return paths, logLR, nil
}
