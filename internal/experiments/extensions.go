package experiments

import (
	"context"
	"fmt"
	"io"

	samurai "samurai"
	"samurai/internal/device"
	"samurai/internal/montecarlo"
	"samurai/internal/sram"
)

// ---------------------------------------------------------------------
// EXP-X1: bidirectionally-coupled co-simulation vs two-pass methodology
// (paper future-work #1).
// ---------------------------------------------------------------------

// X1Result compares the paper's two-pass methodology with the coupled
// co-simulation on identical trap populations.
type X1Result struct {
	Tech  string
	Vdd   float64
	Scale float64
	Seeds int
	// TwoPassErrors and CoupledErrors are the total write errors over
	// all seeds for each mode.
	TwoPassErrors, CoupledErrors int
	TwoPassSlow, CoupledSlow     int
	// MaxQDiff is the largest |ΔQ| between the two modes' Q waveforms
	// over all seeds — a direct measure of how much the feedback the
	// two-pass method ignores actually matters.
	MaxQDiff float64
}

// X1Config controls EXP-X1.
type X1Config struct {
	Tech    string
	VddFrac float64
	Scale   float64
	Seeds   int
}

func (c X1Config) defaults() X1Config {
	if c.Tech == "" {
		c.Tech = "32nm"
	}
	if c.VddFrac == 0 {
		c.VddFrac = 2.0 / 3.0
	}
	if c.Scale == 0 {
		c.Scale = 30
	}
	if c.Seeds == 0 {
		c.Seeds = 3
	}
	return c
}

// X1 runs both modes with pinned trap profiles per seed and compares
// error counts and waveforms.
func X1(cfg X1Config) (*X1Result, error) {
	cfg = cfg.defaults()
	tech := device.Node(cfg.Tech)
	vdd := cfg.VddFrac * tech.Vdd
	cellCfg, err := sram.MarginalCellConfig(sram.CellConfig{Tech: tech, Vdd: vdd})
	if err != nil {
		return nil, err
	}
	pattern := sram.Fig8Pattern(vdd)

	res := &X1Result{Tech: cfg.Tech, Vdd: vdd, Scale: cfg.Scale, Seeds: cfg.Seeds}
	for seed := 0; seed < cfg.Seeds; seed++ {
		base := samurai.Config{
			Tech: tech, Cell: cellCfg, Pattern: pattern,
			Seed: uint64(seed), Scale: cfg.Scale,
		}
		two, err := samurai.Run(base)
		if err != nil {
			return nil, err
		}
		coupledCfg := base
		coupledCfg.Profiles = two.Profiles // identical populations
		coupled, err := samurai.RunCoupled(coupledCfg)
		if err != nil {
			return nil, err
		}
		res.TwoPassErrors += two.WithRTN.NumError
		res.TwoPassSlow += two.WithRTN.NumSlow
		res.CoupledErrors += coupled.NumError
		res.CoupledSlow += coupled.NumSlow
		for _, t := range two.WithRTN.Q.T {
			d := two.WithRTN.Q.Eval(t) - coupled.Q.Eval(t)
			if d < 0 {
				d = -d
			}
			if d > res.MaxQDiff {
				res.MaxQDiff = d
			}
		}
	}
	return res, nil
}

// WriteText renders the EXP-X1 comparison.
func (r *X1Result) WriteText(w io.Writer) {
	writes := r.Seeds * 9
	fmt.Fprintf(w, "EXP-X1 — two-pass methodology vs coupled co-simulation (%s, Vdd=%.2f V, ×%.0f, %d writes)\n",
		r.Tech, r.Vdd, r.Scale, writes)
	fmt.Fprintf(w, "%10s %10s %10s\n", "mode", "errors", "slow")
	fmt.Fprintf(w, "%10s %10d %10d\n", "two-pass", r.TwoPassErrors, r.TwoPassSlow)
	fmt.Fprintf(w, "%10s %10d %10d\n", "coupled", r.CoupledErrors, r.CoupledSlow)
	fmt.Fprintf(w, "max |ΔQ| between modes: %.3f V\n", r.MaxQDiff)
}

// ---------------------------------------------------------------------
// EXP-X2: SRAM-array Monte-Carlo (paper future-work #3).
// ---------------------------------------------------------------------

// X2Result is the array-level write-error statistics with and without
// RTN on top of local Vt variation.
type X2Result struct {
	Tech            string
	Vdd             float64
	Cells           int
	Scale           float64
	VarOnlyFailed   int
	WithRTNFailed   int
	VarOnlyRate     float64
	WithRTNRate     float64
	MeanTrapsPerRTN float64
}

// X2Config controls EXP-X2.
type X2Config struct {
	Tech    string
	VddFrac float64
	Scale   float64
	Cells   int
	Seed    uint64
	Workers int
}

func (c X2Config) defaults() X2Config {
	if c.Tech == "" {
		c.Tech = "32nm"
	}
	if c.VddFrac == 0 {
		c.VddFrac = 2.0 / 3.0
	}
	if c.Scale == 0 {
		c.Scale = 10
	}
	if c.Cells == 0 {
		c.Cells = 64
	}
	return c
}

// X2 simulates an array of cells with per-cell Vt variation twice —
// variation only, then variation + accelerated RTN — quantifying the
// incremental bit-error contribution of RTN (the paper's motivating
// claim: on top of other variabilities, RTN's increment flips cells).
func X2(cfg X2Config) (*X2Result, error) {
	cfg = cfg.defaults()
	tech := device.Node(cfg.Tech)
	vdd := cfg.VddFrac * tech.Vdd
	cellCfg, err := sram.MarginalCellConfig(sram.CellConfig{Tech: tech, Vdd: vdd})
	if err != nil {
		return nil, err
	}
	pattern := sram.Fig8Pattern(vdd)
	base := montecarlo.ArrayConfig{
		Tech: tech, Cell: cellCfg, Pattern: pattern,
		Cells: cfg.Cells, Scale: cfg.Scale, Seed: cfg.Seed,
		Workers: cfg.Workers,
	}

	varOnly := base
	varOnly.WithRTN = false
	vRes, err := montecarlo.RunArrayCtx(context.Background(), varOnly, samurai.ArrayRunnerCtx(), montecarlo.ArrayOptions{})
	if err != nil {
		return nil, err
	}
	withRTN := base
	withRTN.WithRTN = true
	rRes, err := montecarlo.RunArrayCtx(context.Background(), withRTN, samurai.ArrayRunnerCtx(), montecarlo.ArrayOptions{})
	if err != nil {
		return nil, err
	}
	return &X2Result{
		Tech: cfg.Tech, Vdd: vdd, Cells: cfg.Cells, Scale: cfg.Scale,
		VarOnlyFailed:   vRes.NumFailed,
		WithRTNFailed:   rRes.NumFailed,
		VarOnlyRate:     vRes.ErrorRate,
		WithRTNRate:     rRes.ErrorRate,
		MeanTrapsPerRTN: rRes.MeanTraps,
	}, nil
}

// WriteText renders the EXP-X2 table.
func (r *X2Result) WriteText(w io.Writer) {
	fmt.Fprintf(w, "EXP-X2 — %d-cell array Monte-Carlo (%s, Vdd=%.2f V, RTN ×%.0f)\n",
		r.Cells, r.Tech, r.Vdd, r.Scale)
	fmt.Fprintf(w, "%18s %10s %10s\n", "population", "failed", "rate")
	fmt.Fprintf(w, "%18s %10d %10.3f\n", "variation only", r.VarOnlyFailed, r.VarOnlyRate)
	fmt.Fprintf(w, "%18s %10d %10.3f\n", "variation + RTN", r.WithRTNFailed, r.WithRTNRate)
	fmt.Fprintf(w, "mean traps per cell: %.1f\n", r.MeanTrapsPerRTN)
}
