package vv

import (
	"fmt"
	"math"
	"sort"

	"samurai"
	"samurai/internal/device"
	"samurai/internal/markov"
	"samurai/internal/obs"
	"samurai/internal/rareevent"
	"samurai/internal/rng"
	"samurai/internal/rtn"
	"samurai/internal/sram"
	"samurai/internal/trap"
	"samurai/internal/waveform"
)

// Conformance-harness instrumentation; published as gates run so a
// long matrix is observable through the standard /metrics endpoint.
var (
	mVVScenarios = obs.GetCounter("samurai_vv_scenarios_total",
		"conformance scenarios executed")
	mVVGates = obs.GetCounter("samurai_vv_gates_total",
		"statistical gates evaluated")
	mVVGateFailures = obs.GetCounter("samurai_vv_gate_failures_total",
		"statistical gates that rejected the simulator")
	mVVPaths = obs.GetCounter("samurai_vv_paths_total",
		"sample paths drawn by the conformance harness")
)

// Simulator draws an ensemble of trap occupancy paths over [t0, t1]
// under a shared PWL gate bias: one path per trap, path k drawn from
// r.Split(k) — the signature of markov.BatchState.Run. The conformance
// suites are written against this seam so a deliberately broken kernel
// can be substituted in tests to prove the gates have detection power.
type Simulator func(ctx trap.Context, traps []trap.Trap, bias *waveform.PWL, t0, t1 float64, r *rng.Stream) ([]*markov.Path, error)

// DefaultSimulator is the production Algorithm 1 kernel behind the
// Simulator seam: the batched SoA kernel, every path one lane of a
// markov.BatchState.
func DefaultSimulator(ctx trap.Context, traps []trap.Trap, bias *waveform.PWL, t0, t1 float64, r *rng.Stream) ([]*markov.Path, error) {
	return markov.NewBatchState().Run(ctx, traps, bias, t0, t1, r)
}

// Gate is one statistical check in a conformance report. Pass is
// decided by comparing the p-value against the gate's Bonferroni share
// of the report-wide false-positive budget (Alpha); for the "exact"
// statistic the p-value is 1 or 0 by construction.
type Gate struct {
	Name string `json:"name"`
	// Statistic names the test family: "binom" (exact binomial),
	// "clt-z" (CLT mean z-test), "ks-dkw" (Kolmogorov–Smirnov gated on
	// the DKW tail bound), "chi2" (chi-square on PIT bins), or "exact"
	// (a deterministic identity that must hold to the bit).
	Statistic string  `json:"statistic"`
	N         int     `json:"n"`
	Value     float64 `json:"value"`
	Ref       float64 `json:"ref"`
	PValue    float64 `json:"p_value"`
	Alpha     float64 `json:"alpha"`
	Pass      bool    `json:"pass"`
}

// ScenarioReport is the outcome of one scenario's gate battery.
type ScenarioReport struct {
	Name  string `json:"name"`
	Note  string `json:"note"`
	Paths int    `json:"paths"`
	Gates []Gate `json:"gates"`
	// Rare carries the importance-sampling aggregate (ESS, LR
	// variance, CI width) of rare-event rows; absent on naive rows, so
	// existing report goldens are unaffected.
	Rare *rareevent.ArrayStats `json:"rare,omitempty"`
	Pass bool                  `json:"pass"`
}

// add records a gate in the report and the obs counters.
func (sr *ScenarioReport) add(g Gate) {
	mVVGates.Inc()
	if !g.Pass {
		mVVGateFailures.Inc()
		sr.Pass = false
	}
	sr.Gates = append(sr.Gates, g)
}

// Report is the full conformance report emitted by cmd/samuraivv. It
// contains only ordered fields (no maps, no timestamps), so for a fixed
// seed the JSON encoding is bit-identical across runs and machines.
type Report struct {
	Seed uint64 `json:"seed"`
	// Alpha is the total false-positive budget: the probability that a
	// correct simulator fails at least one gate in this report.
	Alpha        float64          `json:"alpha"`
	Gates        int              `json:"gates"`
	PerGateAlpha float64          `json:"per_gate_alpha"`
	Scenarios    []ScenarioReport `json:"scenarios"`
	Pass         bool             `json:"pass"`
}

// DefaultAlpha is the default report-wide false-positive budget. It is
// the CI flake bound documented in DESIGN.md §10.
const DefaultAlpha = 1e-6

// asymptoticSafety further divides the per-gate alpha for gates whose
// p-values are asymptotic approximations (CLT z, chi-square). At the
// extreme tails these budgets operate in (α ≈ 1e-8), moderate-deviation
// error can inflate the true rejection rate by a small factor; an extra
// order of magnitude of threshold headroom keeps the documented budget
// honest while costing no detection power (real defects produce
// p-values tens of orders of magnitude below any of these thresholds).
const asymptoticSafety = 10

// chiBins is the equiprobable bin count of the PIT chi-square gates.
const chiBins = 20

// composeSamples is the trace sample count of the rtn.Compose gates.
const composeSamples = 512

// composeDrainCurrent is the constant drain current, A, used by the
// Compose gates (the value is arbitrary: Eq (3) is linear in I_d).
const composeDrainCurrent = 10e-6

// Options configures a conformance run.
type Options struct {
	// Seed is the master seed; every stream in the run derives from it.
	Seed uint64
	// Alpha is the report-wide false-positive budget (default
	// DefaultAlpha).
	Alpha float64
	// Sim is the simulator under test (default DefaultSimulator).
	Sim Simulator
	// E2E also drives the full samurai.Run methodology (two circuit
	// passes per run) and gates the resulting trap path statistics.
	E2E bool
	// E2ERuns is the number of end-to-end methodology runs (default 32).
	E2ERuns int
}

func (o Options) defaults() Options {
	if o.Alpha == 0 {
		o.Alpha = DefaultAlpha
	}
	if o.Sim == nil {
		o.Sim = DefaultSimulator
	}
	if o.E2ERuns == 0 {
		o.E2ERuns = 32
	}
	return o
}

// e2eGateCount is the number of gates the end-to-end suite contributes
// (len(e2eProbeFracs) binomial probes + one first-transition KS).
const e2eGateCount = 4

// e2eProbeFracs positions the end-to-end occupancy probes inside the
// write pattern.
var e2eProbeFracs = []float64{0.25, 0.6, 0.9}

// RunMatrix executes the full conformance matrix (plus, optionally, the
// end-to-end methodology suite) and returns the report. The report is a
// pure function of Options for a fixed simulator.
func RunMatrix(opts Options) (*Report, error) {
	opts = opts.defaults()
	scenarios, err := Matrix()
	if err != nil {
		return nil, err
	}
	total := 0
	for _, sc := range scenarios {
		total += sc.GateCount()
	}
	if opts.E2E {
		total += e2eGateCount
	}
	budget := Budget{Alpha: opts.Alpha, Gates: total}
	root := rng.New(opts.Seed)
	rep := &Report{
		Seed:         opts.Seed,
		Alpha:        opts.Alpha,
		Gates:        total,
		PerGateAlpha: budget.PerGate(),
		Pass:         true,
	}
	for i, sc := range scenarios {
		sr, err := RunScenario(sc, opts.Sim, root.Split(uint64(100+i)), budget)
		if err != nil {
			return nil, err
		}
		mVVScenarios.Inc()
		if !sr.Pass {
			rep.Pass = false
		}
		rep.Scenarios = append(rep.Scenarios, sr)
	}
	if opts.E2E {
		sr, err := runE2E(opts, root.Split(999), budget)
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

// RunScenario draws the scenario's path ensemble with one sim call —
// every path a copy of the scenario's trap — and runs its gate battery
// against the analytic Master reference. The budget is the report-wide
// false-positive budget (its PerGate share decides each gate's
// threshold).
func RunScenario(sc Scenario, sim Simulator, r *rng.Stream, budget Budget) (ScenarioReport, error) {
	traps := make([]trap.Trap, sc.Paths)
	for i := range traps {
		traps[i] = sc.Tr
	}
	paths, err := sim(sc.Ctx, traps, sc.Bias, sc.T0, sc.T1, r)
	if err != nil {
		return ScenarioReport{Name: sc.Name, Note: sc.Note, Paths: sc.Paths},
			fmt.Errorf("vv: scenario %s: %w", sc.Name, err)
	}
	m, err := NewMaster(sc.Ctx, sc.Tr, sc.Bias)
	if err != nil {
		return ScenarioReport{}, fmt.Errorf("vv: scenario %s: %w", sc.Name, err)
	}
	perGate := budget.PerGate()
	alphaAsym := perGate / asymptoticSafety
	sr := ScenarioReport{Name: sc.Name, Note: sc.Note, Paths: sc.Paths, Pass: true}
	mVVPaths.Add(int64(len(paths)))

	p0 := 0.0
	if sc.Tr.InitFilled {
		p0 = 1
	}

	// Occupancy probes: exact binomial tests of the filled count at
	// each probe instant against the analytic p(t). Exact at any n·p,
	// including the pinned-state regimes where CLT gates are invalid.
	probes := append([]float64(nil), sc.Probes...)
	sort.Float64s(probes)
	pAnalytic := p0
	prev := sc.T0
	for j, t := range probes {
		pAnalytic = m.Occupancy(prev, t, pAnalytic)
		prev = t
		k := 0
		for _, p := range paths {
			if p.StateAt(t) {
				k++
			}
		}
		pv := BinomTwoSidedP(k, len(paths), pAnalytic)
		sr.add(Gate{
			Name:      fmt.Sprintf("occupancy-probe-%d", j),
			Statistic: "binom",
			N:         len(paths),
			Value:     float64(k),
			Ref:       float64(len(paths)) * pAnalytic,
			PValue:    pv,
			Alpha:     perGate,
			Pass:      pv >= perGate,
		})
	}

	// Time-average occupancy: CLT z-test of the per-path filled
	// fraction against the analytic (1/T)·∫p dt.
	occ := make([]float64, len(paths))
	for i, p := range paths {
		occ[i] = p.FilledFraction()
	}
	muOcc := m.MeanOccupancy(sc.T0, sc.T1, p0)
	z, pv := MeanZTest(occ, muOcc)
	sr.add(Gate{
		Name: "occupancy-mean", Statistic: "clt-z", N: len(occ),
		Value: z, Ref: muOcc, PValue: pv, Alpha: alphaAsym,
		Pass: pv >= alphaAsym,
	})

	// Transition count: CLT z-test of the per-path flip count against
	// the analytic E[N] = ∫ λ_c(1−p)+λ_e·p dt. This is the gate with
	// the most direct power against thinning-probability bugs — a
	// (1+ε) rate scaling shifts E[N] by ε while golden tests stay green.
	tc := make([]float64, len(paths))
	for i, p := range paths {
		tc[i] = float64(p.Transitions())
	}
	muTrans := m.ExpectedTransitions(sc.T0, sc.T1, p0)
	z, pv = MeanZTest(tc, muTrans)
	sr.add(Gate{
		Name: "transitions-mean", Statistic: "clt-z", N: len(tc),
		Value: z, Ref: muTrans, PValue: pv, Alpha: alphaAsym,
		Pass: pv >= alphaAsym,
	})

	// First-transition time: KS against the exact conditional law
	// F(t)/F(t1) of the inhomogeneous chain, gated on the DKW bound
	// (rigorous at any sample size, no asymptotic approximation).
	var first []float64
	for _, p := range paths {
		if len(p.Times) > 1 {
			first = append(first, p.Times[1])
		}
	}
	firstCDF := m.ConditionalFirstTransitionCDF(sc.T0, sc.T1, sc.Tr.InitFilled)
	d := KSStat(first, firstCDF)
	pv = KSPValueDKW(len(first), d)
	sr.add(Gate{
		Name: "first-transition-ks", Statistic: "ks-dkw", N: len(first),
		Value: d, Ref: 0, PValue: pv, Alpha: perGate,
		Pass: pv >= perGate,
	})

	if sc.Dwell {
		addDwellGates(&sr, sc, m, paths, alphaAsym, p0)
	}
	if sc.Compose {
		if err := addComposeGates(&sr, sc, m, paths, perGate, alphaAsym, p0); err != nil {
			return sr, err
		}
	}
	return sr, nil
}

// addDwellGates runs the constant-bias dwell-time gates against the
// exact windowed dwell law (see Master.WindowedDwellCDF — the finite
// horizon censors long sojourns, so the reference is a mixture of
// truncated exponentials, not a plain exponential). Sojourns are pooled
// across paths; within a path the pooled samples are only approximately
// iid (the window couples how many sojourns fit), so both gate families
// run at the asymptotic threshold rather than the rigorous one.
func addDwellGates(sr *ScenarioReport, sc Scenario, m *Master, paths []*markov.Path, alphaAsym, p0 float64) {
	v := sc.Bias.Eval(sc.T0)
	var filled, empty []float64
	for _, p := range paths {
		f, e := p.DwellTimes()
		filled = append(filled, f...)
		empty = append(empty, e...)
	}
	for _, g := range []struct {
		name   string
		dwells []float64
		state  bool
	}{
		{"dwell-filled", filled, true},
		{"dwell-empty", empty, false},
	} {
		cdf := m.WindowedDwellCDF(v, sc.T0, sc.T1, p0, g.state)
		d := KSStat(g.dwells, cdf)
		pv := KSPValueDKW(len(g.dwells), d)
		sr.add(Gate{
			Name: g.name + "-ks", Statistic: "ks-dkw", N: len(g.dwells),
			Value: d, Ref: 0, PValue: pv, Alpha: alphaAsym,
			Pass: pv >= alphaAsym,
		})
		stat, dof := ChiSquareUniform(PIT(g.dwells, cdf), chiBins)
		pv = ChiSquarePValue(stat, dof)
		sr.add(Gate{
			Name: g.name + "-chi2", Statistic: "chi2", N: len(g.dwells),
			Value: stat, Ref: float64(dof), PValue: pv, Alpha: alphaAsym,
			Pass: pv >= alphaAsym,
		})
	}
}

// addComposeGates drives rtn.Compose over the scenario's path ensemble
// (all paths as traps of one device) and gates the composed trace:
// first an exact Eq (3) identity — every sample must equal the
// single-trap step amplitude times the filled count, to the bit — then
// a CLT gate on the per-path sampled occupancy over the same grid.
func addComposeGates(sr *ScenarioReport, sc Scenario, m *Master, paths []*markov.Path, perGate, alphaAsym, p0 float64) error {
	tech := device.Node("90nm")
	dev := device.NewMOS(tech, device.NMOS, 2*tech.Lmin, tech.Lmin)
	idW := waveform.Constant(composeDrainCurrent)
	trace, err := rtn.Compose(paths, dev, sc.Bias, idW, sc.T0, sc.T1, composeSamples)
	if err != nil {
		return fmt.Errorf("vv: scenario %s compose: %w", sc.Name, err)
	}

	// Exact identity: Compose under constant bias is algebraically
	// I_i = ΔI·N_filled(t_i) with ΔI = I_d/(W·L·N); both sides are
	// computed through the same float operations, so the difference
	// must be exactly zero.
	step := rtn.StepAmplitude(dev, sc.Bias.Eval(sc.T0), composeDrainCurrent)
	times, counts := rtn.NFilled(paths)
	maxErr := 0.0
	for i, t := range trace.T {
		nf := rtn.CountAt(times, counts, t)
		if e := math.Abs(trace.I[i] - step*float64(nf)); e > maxErr {
			maxErr = e
		}
	}
	identityPass := maxErr <= 0
	pv := 0.0
	if identityPass {
		pv = 1
	}
	sr.add(Gate{
		Name: "compose-identity", Statistic: "exact", N: composeSamples,
		Value: maxErr, Ref: 0, PValue: pv, Alpha: perGate,
		Pass: identityPass,
	})

	// Sampled occupancy over the Compose grid: each path contributes an
	// iid time-average of its 0/1 state at the sample instants; the
	// reference is the analytic p(t) averaged over the same instants.
	_, ps := m.OccupancyGrid(sc.T0, sc.T1, p0, composeSamples-1)
	mu := 0.0
	for _, p := range ps {
		mu += p
	}
	mu /= float64(len(ps))
	sample := make([]float64, len(paths))
	for i, p := range paths {
		_, vs := p.Sample(sc.T0, sc.T1, composeSamples)
		s := 0.0
		for _, v := range vs {
			s += v
		}
		sample[i] = s / float64(len(vs))
	}
	z, pv := MeanZTest(sample, mu)
	sr.add(Gate{
		Name: "compose-occupancy", Statistic: "clt-z", N: len(sample),
		Value: z, Ref: mu, PValue: pv, Alpha: alphaAsym,
		Pass: pv >= alphaAsym,
	})
	return nil
}

// runE2E drives the full samurai.Run methodology with a pinned
// single-trap profile on the pass transistor M1 and gates the resulting
// occupancy paths against a Master built on the *extracted* clean-pass
// bias — so circuit simulation, bias extraction, trap simulation and
// the plumbing between them are all inside the tested loop. The clean
// pass is seed-independent, so one run's extracted bias serves as the
// analytic reference for all runs.
func runE2E(opts Options, r *rng.Stream, budget Budget) (ScenarioReport, error) {
	perGate := budget.PerGate()
	tech := device.Node("90nm")
	vdd := sram.CellConfig{Tech: tech}.Defaults().Vdd
	tctx := tech.TrapContext(vdd)
	// A shallow (fast) trap: λ_s ≈ 4e9/s sees tens of candidate events
	// inside the ~18 ns Fig 8 pattern.
	tr := trap.Trap{Y: 1e-10, E: 0}
	profiles := map[string]trap.Profile{}
	for _, name := range sram.Transistors {
		pr := trap.Profile{Ctx: tctx}
		if name == "M1" {
			pr.Traps = []trap.Trap{tr}
		}
		profiles[name] = pr
	}
	dur := sram.Fig8Pattern(vdd).Duration()

	sr := ScenarioReport{
		Name:  "e2e-samurai-run",
		Note:  "full two-pass methodology, pinned single trap on M1, gates on extracted-bias reference",
		Paths: opts.E2ERuns,
		Pass:  true,
	}
	seeds := make([]uint64, opts.E2ERuns)
	for i := range seeds {
		seeds[i] = r.Uint64()
	}
	states := make([][]bool, len(e2eProbeFracs))
	for j := range states {
		states[j] = make([]bool, opts.E2ERuns)
	}
	var first []float64
	var master *Master
	for run := 0; run < opts.E2ERuns; run++ {
		res, err := samurai.Run(samurai.Config{Tech: tech, Seed: seeds[run], Profiles: profiles})
		if err != nil {
			return sr, fmt.Errorf("vv: e2e run %d: %w", run, err)
		}
		path := res.Paths["M1"][0]
		for j, f := range e2eProbeFracs {
			states[j][run] = path.StateAt(f * dur)
		}
		if len(path.Times) > 1 {
			first = append(first, path.Times[1])
		}
		if master == nil {
			vgs, _, err := res.Clean.Trans.DeviceBias("M1")
			if err != nil {
				return sr, fmt.Errorf("vv: e2e bias extraction: %w", err)
			}
			master, err = NewMaster(tctx, tr, vgs)
			if err != nil {
				return sr, fmt.Errorf("vv: e2e reference: %w", err)
			}
		}
	}

	pAnalytic := 0.0
	prev := 0.0
	for j, f := range e2eProbeFracs {
		t := f * dur
		pAnalytic = master.Occupancy(prev, t, pAnalytic)
		prev = t
		k := 0
		for _, filled := range states[j] {
			if filled {
				k++
			}
		}
		pv := BinomTwoSidedP(k, opts.E2ERuns, pAnalytic)
		sr.add(Gate{
			Name:      fmt.Sprintf("e2e-occupancy-probe-%d", j),
			Statistic: "binom",
			N:         opts.E2ERuns,
			Value:     float64(k),
			Ref:       float64(opts.E2ERuns) * pAnalytic,
			PValue:    pv,
			Alpha:     perGate,
			Pass:      pv >= perGate,
		})
	}
	cdf := master.ConditionalFirstTransitionCDF(0, dur, false)
	d := KSStat(first, cdf)
	pv := KSPValueDKW(len(first), d)
	sr.add(Gate{
		Name: "e2e-first-transition-ks", Statistic: "ks-dkw", N: len(first),
		Value: d, Ref: 0, PValue: pv, Alpha: perGate,
		Pass: pv >= perGate,
	})
	return sr, nil
}
