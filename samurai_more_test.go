package samurai

import (
	"context"
	"math"
	"testing"

	"samurai/internal/circuit"
	"samurai/internal/device"
	"samurai/internal/montecarlo"
	"samurai/internal/sram"
	"samurai/internal/trap"
	"samurai/internal/waveform"
)

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.defaults()
	if cfg.Tech.Name != "90nm" {
		t.Fatalf("default tech = %q", cfg.Tech.Name)
	}
	if cfg.Scale != 1 {
		t.Fatalf("default scale = %g", cfg.Scale)
	}
	if len(cfg.Pattern.Bits) != 9 {
		t.Fatalf("default pattern length = %d", len(cfg.Pattern.Bits))
	}
	if cfg.TraceSamples != 4096 {
		t.Fatalf("default trace samples = %d", cfg.TraceSamples)
	}
	if cfg.Dt <= 0 {
		t.Fatal("default dt not set")
	}
}

func TestRunMethodSchemesAgree(t *testing.T) {
	// Backward Euler and trapezoidal must agree on every cycle verdict
	// for the same trap populations.
	be, err := Run(Config{Seed: 5, Method: circuit.BackwardEuler})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Run(Config{Seed: 5, Method: circuit.Trapezoidal, Profiles: be.Profiles})
	if err != nil {
		t.Fatal(err)
	}
	for i := range be.WithRTN.Cycles {
		if be.WithRTN.Cycles[i].Written != tr.WithRTN.Cycles[i].Written {
			t.Fatalf("cycle %d verdict differs across schemes", i)
		}
	}
}

func TestRunPinnedProfilesReused(t *testing.T) {
	a, err := Run(Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Seed: 1234, Profiles: a.Profiles})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range sram.Transistors {
		if len(a.Profiles[name].Traps) != len(b.Profiles[name].Traps) {
			t.Fatalf("%s: pinned profile not reused", name)
		}
		for i := range a.Profiles[name].Traps {
			if a.Profiles[name].Traps[i] != b.Profiles[name].Traps[i] {
				t.Fatalf("%s: trap %d differs", name, i)
			}
		}
	}
}

func TestRunScaleChangesTraceAmplitudeOnly(t *testing.T) {
	base, err := Run(Config{Seed: 3, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := Run(Config{Seed: 3, Scale: 10, Profiles: base.Profiles})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range sram.Transistors {
		a, b := base.Traces[name], scaled.Traces[name]
		for i := range a.I {
			if math.Abs(b.I[i]-10*a.I[i]) > 1e-18+1e-9*math.Abs(a.I[i]) {
				t.Fatalf("%s: scale not a pure amplitude factor at %d", name, i)
			}
		}
	}
}

func TestRunCoupledDeterministic(t *testing.T) {
	a, err := RunCoupled(Config{Seed: 4, Dt: 20e-12})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCoupled(Config{Seed: 4, Dt: 20e-12})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Q.V {
		if a.Q.V[i] != b.Q.V[i] {
			t.Fatal("coupled run not deterministic")
		}
	}
}

func TestRunCoupledClampsInjection(t *testing.T) {
	// Even at absurd acceleration the coupled injection is clamped to
	// full channel suppression, so the run must complete and the cell
	// voltages stay within a volt of the rails.
	res, err := RunCoupled(Config{Seed: 2, Scale: 1e4, Dt: 20e-12})
	if err != nil {
		t.Fatal(err)
	}
	if res.Q.Max() > 2*res.Config.Cell.Defaults().Vdd || res.Q.Min() < -res.Config.Cell.Defaults().Vdd {
		t.Fatalf("coupled Q escaped the rails: [%g, %g]", res.Q.Min(), res.Q.Max())
	}
}

func TestGenerateTraceValidation(t *testing.T) {
	tech := device.Node("90nm")
	dev := device.NewMOS(tech, device.NMOS, 2*tech.Lmin, tech.Lmin)
	profile := trap.Profile{Ctx: tech.TrapContext(1.2), Traps: []trap.Trap{{Y: 1e-9, E: 0}}}
	if _, _, err := GenerateTrace(profile, dev, waveform.Constant(1), waveform.Constant(1e-6), 0, 1e-6, 1, 1); err == nil {
		t.Fatal("samples=1 accepted")
	}
	if _, _, err := GenerateTrace(profile, dev, waveform.Constant(1), waveform.Constant(1e-6), 1e-6, 0, 16, 1); err == nil {
		t.Fatal("reversed interval accepted")
	}
}

func TestArrayRunnerScaleZeroSkipsRTN(t *testing.T) {
	run := ArrayRunnerCtx()
	tech := device.Node("90nm")
	cell := sram.CellConfig{Tech: tech}.Defaults()
	pattern := sram.Fig8Pattern(tech.Vdd)
	errs, _, traps, err := run(context.Background(), cell, pattern, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if traps != 0 {
		t.Fatalf("clean-only run reported %d traps", traps)
	}
	if errs != 0 {
		t.Fatalf("clean-only run failed %d writes", errs)
	}
	// With RTN the trap count must be reported.
	_, _, traps, err = run(context.Background(), cell, pattern, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if traps == 0 {
		t.Fatal("RTN run reported no traps")
	}
}

// TestRareRunnerTiltZeroCleanSweepMatchesNaive: a variation-only
// (WithRTN false) sweep at tilt 0 must be bit-identical through the
// rare runner and the naive one — the clean-only branch draws no trap
// paths in either, so every field the naive sweep fills agrees.
func TestRareRunnerTiltZeroCleanSweepMatchesNaive(t *testing.T) {
	tech := device.Node("32nm")
	cfg := montecarlo.ArrayConfig{
		Tech:    tech,
		Cell:    sram.CellConfig{Tech: tech},
		Pattern: sram.Fig8Pattern(tech.Vdd),
		Cells:   3,
		Scale:   1,
		Seed:    5,
		WithRTN: false,
		Workers: 1,
	}
	ctx := context.Background()
	naive, err := montecarlo.RunArrayCtx(ctx, cfg, ArrayRunnerCtx(), montecarlo.ArrayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rare, err := montecarlo.RunArrayCtx(ctx, cfg, nil, montecarlo.ArrayOptions{
		RareEvent: &montecarlo.RareEventSpec{TiltEV: 0, Runner: RareArrayRunnerCtx()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rare.Outcomes) != len(naive.Outcomes) {
		t.Fatalf("%d rare outcomes, %d naive", len(rare.Outcomes), len(naive.Outcomes))
	}
	for i, w := range naive.Outcomes {
		g := rare.Outcomes[i]
		if g.Index != w.Index || g.TrapCount != w.TrapCount || g.Errors != w.Errors ||
			g.Slow != w.Slow || g.Failed != w.Failed {
			t.Fatalf("cell %d: rare %+v, naive %+v", i, g, w)
		}
		if len(g.VtShift) != len(w.VtShift) {
			t.Fatalf("cell %d: VtShift has %d entries, naive %d", i, len(g.VtShift), len(w.VtShift))
		}
		for name, v := range w.VtShift {
			if math.Float64bits(g.VtShift[name]) != math.Float64bits(v) {
				t.Fatalf("cell %d: VtShift[%s] %g, naive %g", i, name, g.VtShift[name], v)
			}
		}
		if math.Float64bits(g.LogLR) != 0 {
			t.Fatalf("cell %d: clean-only log-LR %g, want exactly 0", i, g.LogLR)
		}
	}
}

func TestCoupledVsTwoPassShareTrapLaw(t *testing.T) {
	// With the same pinned populations, both modes must report the
	// same trap counts per transistor (the paths differ — coupled
	// feedback changes the biases — but the populations are shared).
	two, err := Run(Config{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	coupled, err := RunCoupled(Config{Seed: 6, Profiles: two.Profiles})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range sram.Transistors {
		if len(two.Paths[name]) != len(coupled.Paths[name]) {
			t.Fatalf("%s: population size differs between modes", name)
		}
	}
}
