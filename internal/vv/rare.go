package vv

import (
	"fmt"
	"math"

	"samurai/internal/markov"
	"samurai/internal/obs"
	"samurai/internal/rareevent"
	"samurai/internal/rng"
	"samurai/internal/trap"
	"samurai/internal/waveform"
)

// Rare-event conformance: the importance-sampling kernel
// (markov.UniformiseTilted) is gated for *unbiasedness* against the
// same closed-form Master reference the naive battery uses. Each rare
// row draws an ensemble under one energy tilt and checks
//
//   - is-mean: the weighted occupancy estimate Σ wᵢxᵢ/n matches the
//     analytic p(T1) — exact binomial at tilt 0 (weights are unit),
//     CLT z under a real tilt;
//   - weight-mean: Σ wᵢ/n matches its exactly-known expectation 1
//     (the weight is the control variate with closed-form mean) —
//     exact at tilt 0, CLT z otherwise;
//   - lr-exact: every path's incrementally accumulated log-LR equals
//     the post-hoc recomputation from its thinning record, to the bit;
//   - tilt0-naive-identity (tilt-0 rows only): the tilted kernel's
//     paths are bit-identical to markov.Uniformise on the same
//     streams.
//
// Rare rows draw through the sequential tilted kernel, the per-trap
// body of markov.UniformiseProfileTilted — the kernel samurai.RunCtx
// runs whenever Config.TiltEV is non-zero.

var mVVRareRows = obs.GetCounter("samurai_vv_rare_rows_total",
	"rare-event conformance rows executed")

// RareSimulator draws one tilted path: the seam the broken-weight
// detection tests substitute through. rec, when non-nil, receives the
// candidate history (markov.ThinningRecord semantics).
type RareSimulator func(ctx trap.Context, tr trap.Trap, bias *waveform.PWL, t0, t1, tiltEV float64, r *rng.Stream, rec *markov.ThinningRecord) (*markov.Path, float64, error)

// DefaultRareSimulator is the production tilted kernel behind the seam.
func DefaultRareSimulator(ctx trap.Context, tr trap.Trap, bias *waveform.PWL, t0, t1, tiltEV float64, r *rng.Stream, rec *markov.ThinningRecord) (*markov.Path, float64, error) {
	return markov.UniformiseTilted(ctx, tr, markov.PWLBias(bias), t0, t1, tiltEV, r, rec)
}

// RareScenario is one row of the rare-event conformance matrix.
type RareScenario struct {
	Name   string
	Ctx    trap.Context
	Tr     trap.Trap
	Bias   *waveform.PWL
	T0, T1 float64
	// TiltEV is the importance-sampling energy tilt the row samples
	// under (0 pins the naive-identity contract).
	TiltEV float64
	// Paths is the ensemble size.
	Paths int
	Note  string
}

// GateCount returns the number of gates the row contributes: is-mean,
// weight-mean and lr-exact, plus the naive-identity gate at tilt 0.
func (sc RareScenario) GateCount() int {
	n := 3
	if sc.TiltEV == 0 {
		n++
	}
	return n
}

// RareMatrix returns the standard rare-event rows: one occupancy
// scenario (β ≈ 1000, equilibrium p ≈ 1e-3) swept over three tilt
// strengths including 0, plus a deeper row (p ≈ 9e-6) under a strong
// tilt — the regime where the naive battery has no power at all.
//
// Horizons are 12/λ* — long enough that the occupancy fully
// equilibrates (the relaxation rate of the two-state chain is exactly
// λ* = λ_c+λ_e, bias-independent), yet short enough that the weight
// distribution stays light-tailed: a path sees ~12 candidates, every
// per-candidate LR factor is bounded by the reject ratio
// (1−p)/(1−q), so the worst-case weight is that ratio to the 12th
// power (≈ 1.4 at the mid tilt, ≈ 5 at the deep tilt). Long horizons
// with per-candidate tilting are exactly where importance sampling
// degenerates — the ESS the report carries makes that visible.
func RareMatrix() []RareScenario {
	ctx := vvCtx()
	const horizonCandidates = 12.0
	rows := []RareScenario{}
	{
		tr := trap.Trap{Y: 0.45 * ctx.Tox, E: 0.18}
		horizon := horizonCandidates / ctx.RateSum(tr)
		for _, row := range []struct {
			name string
			tilt float64
		}{
			{"rare-tilt0", 0},
			{"rare-tilt-mid", -0.05},
			{"rare-tilt-strong", -0.09},
		} {
			rows = append(rows, RareScenario{
				Name: row.name, Ctx: ctx, Tr: tr,
				Bias: waveform.Constant(1.2), T0: 0, T1: horizon,
				TiltEV: row.tilt, Paths: 3000,
				Note: fmt.Sprintf("beta~1000 (p~1e-3), tilt %g eV", row.tilt),
			})
		}
	}
	{
		tr := trap.Trap{Y: 0.45 * ctx.Tox, E: 0.30}
		horizon := horizonCandidates / ctx.RateSum(tr)
		rows = append(rows, RareScenario{
			Name: "rare-deep", Ctx: ctx, Tr: tr,
			Bias: waveform.Constant(1.2), T0: 0, T1: horizon,
			TiltEV: -0.25, Paths: 4000,
			Note: "beta~1e5 (p~9e-6); naive MC has no power here",
		})
	}
	return rows
}

// rareGateCount sums the gates of the standard rare matrix.
func rareGateCount() int {
	n := 0
	for _, sc := range RareMatrix() {
		n += sc.GateCount()
	}
	return n
}

// RunRareScenario draws the row's tilted ensemble through sim and runs
// the unbiasedness gate battery. The attached ScenarioReport.Rare
// block carries the weighted aggregate (ESS, LR variance, CI width).
func RunRareScenario(sc RareScenario, sim RareSimulator, r *rng.Stream, budget Budget) (ScenarioReport, error) {
	m, err := NewMaster(sc.Ctx, sc.Tr, sc.Bias)
	if err != nil {
		return ScenarioReport{}, fmt.Errorf("vv: rare row %s: %w", sc.Name, err)
	}
	perGate := budget.PerGate()
	alphaAsym := perGate / asymptoticSafety
	sr := ScenarioReport{Name: sc.Name, Note: sc.Note, Paths: sc.Paths, Pass: true}
	mVVRareRows.Inc()
	mVVPaths.Add(int64(sc.Paths))

	p0 := 0.0
	if sc.Tr.InitFilled {
		p0 = 1
	}
	ref := m.Occupancy(sc.T0, sc.T1, p0)
	zeroTilt := sc.TiltEV == 0

	var est rareevent.Estimator
	weights := make([]float64, sc.Paths)
	weighted := make([]float64, sc.Paths)
	lrMismatches := 0
	unitViolations := 0
	identityViolations := 0
	var child, twin rng.Stream
	var rec markov.ThinningRecord
	for i := 0; i < sc.Paths; i++ {
		r.SplitInto(uint64(i), &child)
		p, logLR, err := sim(sc.Ctx, sc.Tr, sc.Bias, sc.T0, sc.T1, sc.TiltEV, &child, &rec)
		if err != nil {
			return sr, fmt.Errorf("vv: rare row %s path %d: %w", sc.Name, i, err)
		}
		// lr-exact: the incremental accumulation must equal the
		// post-hoc recomputation from the candidate record to the bit.
		post := markov.RecomputeLogLR(sc.Ctx, sc.Tr, markov.PWLBias(sc.Bias), sc.TiltEV, &rec)
		if math.Float64bits(logLR) != math.Float64bits(post) {
			lrMismatches++
		}
		w := math.Exp(logLR)
		x := 0.0
		if p.StateAt(sc.T1) {
			x = 1
		}
		weights[i] = w
		weighted[i] = w * x
		est.Add(w, x)
		if zeroTilt {
			if math.Float64bits(w) != math.Float64bits(1.0) {
				unitViolations++
			}
			// tilt0-naive-identity: re-derive the same child stream and
			// draw with the naive kernel; the paths must agree bit for
			// bit (same stream consumption, same arithmetic).
			r.SplitInto(uint64(i), &twin)
			naive, err := markov.Uniformise(sc.Ctx, sc.Tr, markov.PWLBias(sc.Bias), sc.T0, sc.T1, &twin)
			if err != nil {
				return sr, fmt.Errorf("vv: rare row %s naive twin %d: %w", sc.Name, i, err)
			}
			if !pathsBitEqual(p, naive) {
				identityViolations++
			}
		}
	}

	// is-mean: the unbiasedness gate against the closed-form oracle.
	if zeroTilt {
		k := 0
		for _, wx := range weighted {
			if wx > 0.5 {
				k++
			}
		}
		pv := BinomTwoSidedP(k, sc.Paths, ref)
		sr.add(Gate{
			Name: "rare-is-mean", Statistic: "binom", N: sc.Paths,
			Value: float64(k), Ref: float64(sc.Paths) * ref, PValue: pv,
			Alpha: perGate, Pass: pv >= perGate,
		})
	} else {
		z, pv := MeanZTest(weighted, ref)
		sr.add(Gate{
			Name: "rare-is-mean", Statistic: "clt-z", N: sc.Paths,
			Value: z, Ref: ref, PValue: pv, Alpha: alphaAsym,
			Pass: pv >= alphaAsym,
		})
	}

	// weight-mean: the control variate with exactly known mean 1.
	if zeroTilt {
		pass := unitViolations == 0
		pv := 0.0
		if pass {
			pv = 1
		}
		sr.add(Gate{
			Name: "rare-weight-mean", Statistic: "exact", N: sc.Paths,
			Value: float64(unitViolations), Ref: 0, PValue: pv,
			Alpha: perGate, Pass: pass,
		})
	} else {
		z, pv := MeanZTest(weights, 1)
		sr.add(Gate{
			Name: "rare-weight-mean", Statistic: "clt-z", N: sc.Paths,
			Value: z, Ref: 1, PValue: pv, Alpha: alphaAsym,
			Pass: pv >= alphaAsym,
		})
	}

	// lr-exact: incremental vs recomputed log-LR, bitwise.
	{
		pass := lrMismatches == 0
		pv := 0.0
		if pass {
			pv = 1
		}
		sr.add(Gate{
			Name: "rare-lr-exact", Statistic: "exact", N: sc.Paths,
			Value: float64(lrMismatches), Ref: 0, PValue: pv,
			Alpha: perGate, Pass: pass,
		})
	}

	if zeroTilt {
		pass := identityViolations == 0
		pv := 0.0
		if pass {
			pv = 1
		}
		sr.add(Gate{
			Name: "rare-tilt0-naive-identity", Statistic: "exact", N: sc.Paths,
			Value: float64(identityViolations), Ref: 0, PValue: pv,
			Alpha: perGate, Pass: pass,
		})
	}

	stats := est.Stats(sc.TiltEV)
	sr.Rare = &stats
	return sr, nil
}

// pathsBitEqual compares two occupancy paths bit for bit.
func pathsBitEqual(a, b *markov.Path) bool {
	if len(a.Times) != len(b.Times) || len(a.Filled) != len(b.Filled) {
		return false
	}
	for i := range a.Times {
		if math.Float64bits(a.Times[i]) != math.Float64bits(b.Times[i]) {
			return false
		}
	}
	for i := range a.Filled {
		if a.Filled[i] != b.Filled[i] {
			return false
		}
	}
	return true
}

// RunRareMatrix runs the rare-event rows as a report of their own (the
// budget is Bonferroni-divided over the rare gates alone). Row i draws
// from root.Split(500+i), a family of streams disjoint from RunMatrix's
// (100+i for the naive rows, 999 for the end-to-end suite).
func RunRareMatrix(opts Options) (*Report, error) {
	opts = opts.defaults()
	rows := RareMatrix()
	budget := Budget{Alpha: opts.Alpha, Gates: rareGateCount()}
	root := rng.New(opts.Seed)
	rep := &Report{
		Seed:         opts.Seed,
		Alpha:        opts.Alpha,
		Gates:        budget.Gates,
		PerGateAlpha: budget.PerGate(),
		Pass:         true,
	}
	for i, sc := range rows {
		sr, err := RunRareScenario(sc, DefaultRareSimulator, root.Split(uint64(500+i)), budget)
		if err != nil {
			return nil, err
		}
		mVVScenarios.Inc()
		if !sr.Pass {
			rep.Pass = false
		}
		rep.Scenarios = append(rep.Scenarios, sr)
	}
	return rep, nil
}
