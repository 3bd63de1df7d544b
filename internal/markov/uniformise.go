package markov

import (
	"errors"

	"samurai/internal/rng"
	"samurai/internal/trap"
	"samurai/internal/waveform"
)

// BiasFunc returns the instantaneous gate bias V_gs at time t.
type BiasFunc func(t float64) float64

// ConstantBias adapts a fixed V_gs to a BiasFunc.
func ConstantBias(vgs float64) BiasFunc {
	return func(float64) float64 { return vgs }
}

// PWLBias adapts a PWL waveform to a BiasFunc through a
// waveform.Cursor, so the (monotone) candidate-time sweep of
// Uniformise costs O(1) amortised per bias lookup instead of a binary
// search. Values are bit-identical to w.Eval. The returned func owns
// one cursor and must not be shared between goroutines.
func PWLBias(w *waveform.PWL) BiasFunc {
	cur := w.Cursor()
	return cur.Eval
}

// ErrBadInterval is returned when tf <= t0.
var ErrBadInterval = errors.New("markov: simulation interval is empty")

// Uniformise is Algorithm 1 of the paper: exact non-stationary
// simulation of a single trap over [t0, tf] under the time-varying gate
// bias vgs.
//
// Because λ_c(t)+λ_e(t) is bias-independent (Eq 1), λ* := λ_c(t₀)+λ_e(t₀)
// is an exact majorant at all times: candidate events are generated as
// a Poisson process of rate λ* and each is accepted ("the state flips")
// with probability λ_next(t)/λ* where λ_next is the propensity of
// leaving the current state at the candidate time. Accepted and
// rejected candidates together exactly reproduce the inhomogeneous
// chain's law.
//
// The candidate loop is the innermost kernel of the whole methodology;
// it must stay allocation-free (path growth is amortised inside
// Path.Transition).
//
//lint:hot
func Uniformise(ctx trap.Context, tr trap.Trap, vgs BiasFunc, t0, tf float64, r *rng.Stream) (*Path, error) {
	if tf <= t0 {
		return nil, ErrBadInterval
	}
	if err := ctx.Validate(); err != nil {
		return nil, err
	}
	lambdaStar := ctx.RateSum(tr) // == λ_c(t)+λ_e(t) for all t, Eq (1)
	p := NewPath(t0, tf, tr.InitFilled)
	filled := tr.InitFilled
	t := t0
	var candidates, accepts int64 // published once after the loop
	for {
		t += r.Exp(lambdaStar)
		if t > tf {
			break
		}
		candidates++
		lc, le := ctx.Rates(tr, vgs(t))
		lambdaNext := lc
		if filled {
			lambdaNext = le
		}
		if r.Float64() < lambdaNext/lambdaStar {
			p.Transition(t)
			filled = !filled
			accepts++
		}
	}
	publishPath(lambdaStar, candidates, accepts)
	return p, nil
}

// UniformiseProfile simulates every trap in a profile over [t0, tf]
// with the sequential kernel. Each trap gets an independent child
// stream derived from r via Split(i), so trap i's path does not depend
// on how many traps exist. Production code runs PWL biases through
// UniformiseProfileBatch, whose lanes are bit-identical to this loop;
// UniformiseProfile is the sequential reference for tests and the
// kernel for BiasFunc biases no PWL can represent.
func UniformiseProfile(pr trap.Profile, vgs BiasFunc, t0, tf float64, r *rng.Stream) ([]*Path, error) {
	paths := make([]*Path, len(pr.Traps))
	// One reusable child stream: Uniformise only draws from it, so the
	// storage can be re-derived per trap (bit-identical to Split(i)).
	var child rng.Stream
	for i, tr := range pr.Traps {
		r.SplitInto(uint64(i), &child)
		p, err := Uniformise(pr.Ctx, tr, vgs, t0, tf, &child)
		if err != nil {
			return nil, err
		}
		paths[i] = p
	}
	return paths, nil
}

// ExpectedCandidates returns the expected number of candidate events
// Algorithm 1 draws for the given trap and horizon — the cost model
// used by the efficiency benchmarks.
func ExpectedCandidates(ctx trap.Context, tr trap.Trap, t0, tf float64) float64 {
	return ctx.RateSum(tr) * (tf - t0)
}
