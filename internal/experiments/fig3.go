package experiments

import (
	"fmt"
	"io"
	"math"

	"samurai/internal/analysis"
	"samurai/internal/device"
	"samurai/internal/markov"
	"samurai/internal/rng"
	"samurai/internal/rtn"
	"samurai/internal/trap"
	"samurai/internal/waveform"
)

// Fig3Device is the spectral analysis of one sampled device instance.
type Fig3Device struct {
	Index int
	// Traps is the sampled population size; Simulated the subset whose
	// corner lies within the measurement bandwidth (faster traps
	// contribute only a negligible flat background and are skipped —
	// exactly what a band-limited measurement would show).
	Traps, Simulated int
	// Slope and Residual are the log-log 1/f fit over the analysis
	// band: a clean 1/f spectrum has Slope ≈ −1 and a small RMS
	// residual (in decades).
	Slope, Residual float64
}

// Fig3TechResult summarises the 25-device panel for one technology.
type Fig3TechResult struct {
	Tech      string
	WOverL    float64
	Devices   []Fig3Device
	MeanTraps float64
	// MeanResidual and MaxResidual aggregate the 1/f fit quality: the
	// paper's point is that the old (many-trap) technology fits well
	// while the new (few-trap) one does not.
	MeanResidual, MaxResidual float64
	// MeanSlope and SlopeStd summarise the fitted exponents: a genuine
	// 1/f ensemble clusters tightly at −1, while few-trap devices
	// scatter widely (their apparent slope depends on where their
	// handful of Lorentzian corners happen to fall).
	MeanSlope, SlopeStd float64
}

// Fig3Result pairs the two technologies of the paper's Fig 3.
type Fig3Result struct {
	Old, New Fig3TechResult
}

// Fig3Config controls the experiment.
type Fig3Config struct {
	Seed             uint64
	Devices          int // default 25, as in the paper
	Samples          int // trace samples per device; default 1<<18
	Window           float64
	OldTech, NewTech string
	// OldWOverL widens the old-technology device (earlier nodes used
	// larger analog-style devices; this is also what gives them their
	// large trap populations). Default 10.
	OldWOverL float64
}

func (c Fig3Config) defaults() Fig3Config {
	if c.Devices == 0 {
		c.Devices = 25
	}
	if c.Samples == 0 {
		c.Samples = 1 << 18
	}
	if c.Window == 0 {
		c.Window = 2e-3
	}
	if c.OldTech == "" {
		c.OldTech = "130nm"
	}
	if c.NewTech == "" {
		c.NewTech = "32nm"
	}
	if c.OldWOverL == 0 {
		c.OldWOverL = 10
	}
	return c
}

// Fig3 reproduces the paper's Fig 3: spectral density plots for 25
// randomly sampled device instances in an older technology (large
// device, ~hundreds of traps → the analytical 1/f fit is good) and a
// deeply scaled one (a handful of traps → discrete Lorentzian corners,
// 1/f fit fails).
func Fig3(cfg Fig3Config) (*Fig3Result, error) {
	cfg = cfg.defaults()
	root := rng.New(cfg.Seed)
	old, err := fig3Tech(cfg.OldTech, cfg.OldWOverL, cfg, root.Split(1))
	if err != nil {
		return nil, err
	}
	newer, err := fig3Tech(cfg.NewTech, 1.5, cfg, root.Split(2))
	if err != nil {
		return nil, err
	}
	return &Fig3Result{Old: *old, New: *newer}, nil
}

func fig3Tech(name string, wOverL float64, cfg Fig3Config, root *rng.Stream) (*Fig3TechResult, error) {
	tech := device.Node(name)
	w, l := wOverL*tech.Lmin, tech.Lmin
	dev := device.NewMOS(tech, device.NMOS, w, l)
	ctx := tech.TrapContext(tech.Vdd)
	profiler := tech.TrapProfiler()
	vgs := tech.Vdd
	id := dev.Eval(vgs, vgs).Ids

	dt := cfg.Window / float64(cfg.Samples)
	// Traps whose total rate exceeds half the sampling rate have their
	// corner far beyond Nyquist; their aliased contribution is a small
	// flat background, so they are excluded from the event simulation.
	rateCap := 0.5 / dt

	res := &Fig3TechResult{Tech: name, WOverL: wOverL}
	trapTotal := 0
	for d := 0; d < cfg.Devices; d++ {
		r := root.Split(uint64(d))
		profile := profiler.Sample(w, l, ctx, r.Split(0))
		trapTotal += len(profile.Traps)

		sim := trap.Profile{Ctx: ctx}
		for _, tr := range profile.Traps {
			if ctx.RateSum(tr) <= rateCap {
				sim.Traps = append(sim.Traps, tr)
			}
		}
		paths, err := markov.UniformiseProfileBatch(sim, waveform.Constant(vgs), 0, cfg.Window, r.Split(1))
		if err != nil {
			return nil, err
		}
		trace, err := rtn.ComposeConstant(paths, dev, vgs, id, 0, cfg.Window, cfg.Samples)
		if err != nil {
			return nil, err
		}
		freqs, psd, err := analysis.Welch(trace.I, dt, cfg.Samples/32)
		if err != nil {
			return nil, err
		}
		// Fit band: from the first resolved Welch bin up to a third of
		// the highest simulated Lorentzian corner (beyond which every
		// spectrum rolls off at 1/f² regardless of trap population).
		fLo := freqs[0] * 2
		fHi := rateCap / (2 * math.Pi) / 3
		var fx, fy []float64
		for i := range freqs {
			if freqs[i] >= fLo && freqs[i] <= fHi && psd[i] > 0 {
				fx = append(fx, freqs[i])
				fy = append(fy, psd[i])
			}
		}
		// Log-binned fit: equal weight per decade, estimator noise
		// averaged out, so the residual measures genuine spectral
		// structure (the discrete Lorentzian corners of a few-trap
		// device) rather than FFT noise.
		bx, by := analysis.LogBin(fx, fy, 6)
		slope, resid := analysis.LogLogSlope(bx, by)
		res.Devices = append(res.Devices, Fig3Device{
			Index: d, Traps: len(profile.Traps), Simulated: len(sim.Traps),
			Slope: slope, Residual: resid,
		})
	}
	res.MeanTraps = float64(trapTotal) / float64(cfg.Devices)
	for _, d := range res.Devices {
		res.MeanResidual += d.Residual
		res.MeanSlope += d.Slope
		res.MaxResidual = math.Max(res.MaxResidual, d.Residual)
	}
	res.MeanResidual /= float64(len(res.Devices))
	res.MeanSlope /= float64(len(res.Devices))
	for _, d := range res.Devices {
		dev := d.Slope - res.MeanSlope
		res.SlopeStd += dev * dev
	}
	res.SlopeStd = math.Sqrt(res.SlopeStd / float64(len(res.Devices)))
	return res, nil
}

// OneOverFReference returns the analytical 1/f model for a technology's
// mean trap population — the dashed "analytical solution" line of
// Fig 3 — evaluated at frequency f.
func OneOverFReference(techName string, wOverL float64, f float64) float64 {
	tech := device.Node(techName)
	w, l := wOverL*tech.Lmin, tech.Lmin
	dev := device.NewMOS(tech, device.NMOS, w, l)
	ctx := tech.TrapContext(tech.Vdd)
	vgs := tech.Vdd
	id := dev.Eval(vgs, vgs).Ids
	dI := rtn.StepAmplitude(dev, vgs, id)
	meanTraps := tech.TrapProfiler().ExpectedCount(w, l, tech.Tox)
	// Effective variance: ΔI²·p(1−p) averaged over the energy band;
	// use the p=1/2 worst case scaled by the active fraction ~kT/band.
	totalVar := dI * dI * 0.25 * meanTraps * 0.1
	lMin := 1 / (ctx.Tau0 * math.Exp(ctx.Gamma*ctx.Tox))
	lMax := 1 / ctx.Tau0
	return analysis.OneOverFModel(totalVar, lMin, lMax)(f)
}

// WriteText renders the comparison table.
func (r *Fig3Result) WriteText(w io.Writer) {
	fmt.Fprintf(w, "Fig 3 — 1/f fit quality across %d device instances per technology\n", len(r.Old.Devices))
	fmt.Fprintf(w, "%8s %10s %16s %14s %14s %14s\n", "tech", "mean traps", "slope (µ±σ)", "mean residual", "max residual", "verdict")
	row := func(t Fig3TechResult) {
		fmt.Fprintf(w, "%8s %10.1f %9.2f ± %4.2f %14.3f %14.3f %14s\n",
			t.Tech, t.MeanTraps, t.MeanSlope, t.SlopeStd, t.MeanResidual, t.MaxResidual, t.verdict(r.Old))
	}
	row(r.Old)
	row(r.New)
}

// verdict classifies a technology panel against the old-technology
// reference: the analytical 1/f fit "fails" when either the residual
// structure or the slope scatter substantially exceeds the many-trap
// baseline.
func (t Fig3TechResult) verdict(ref Fig3TechResult) string {
	if t.MaxResidual > 1.8*ref.MaxResidual || t.SlopeStd > 2*ref.SlopeStd {
		return "1/f fit FAILS"
	}
	return "1/f fit OK"
}

// Contrast returns the new-to-old residual ratio — the quantitative
// form of the paper's visual contrast (must be ≫ 1).
func (r *Fig3Result) Contrast() float64 {
	if r.Old.MeanResidual == 0 {
		return math.Inf(1)
	}
	return r.New.MeanResidual / r.Old.MeanResidual
}
