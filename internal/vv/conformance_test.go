package vv

import (
	"bytes"
	"encoding/json"
	"testing"

	"samurai/internal/markov"
	"samurai/internal/rng"
	"samurai/internal/trap"
	"samurai/internal/waveform"
)

// TestMatrixShape pins the scenario matrix's structural invariants:
// stable names, positive horizons, probes inside the horizon, and a
// gate count that matches what RunScenario actually emits.
func TestMatrixShape(t *testing.T) {
	scenarios, err := Matrix()
	if err != nil {
		t.Fatalf("Matrix: %v", err)
	}
	if len(scenarios) < 7 {
		t.Fatalf("matrix has %d scenarios, want >= 7", len(scenarios))
	}
	seen := map[string]bool{}
	for _, sc := range scenarios {
		if seen[sc.Name] {
			t.Errorf("duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		if sc.T1 <= sc.T0 {
			t.Errorf("%s: empty horizon", sc.Name)
		}
		if sc.Paths <= 0 {
			t.Errorf("%s: no paths", sc.Name)
		}
		for _, p := range sc.Probes {
			if p < sc.T0 || p > sc.T1 {
				t.Errorf("%s: probe %g outside [%g, %g]", sc.Name, p, sc.T0, sc.T1)
			}
		}
	}
	for _, want := range []string{"const-active", "const-extreme-beta", "near-degenerate-lambda", "step-bias", "ramp-bias", "sram-write-wl"} {
		if !seen[want] {
			t.Errorf("matrix missing scenario %q", want)
		}
	}
}

// TestRunMatrixPasses is the headline conformance check: the production
// simulator must clear every gate of the full matrix.
func TestRunMatrixPasses(t *testing.T) {
	rep, err := RunMatrix(Options{Seed: 1, E2E: !testing.Short()})
	if err != nil {
		t.Fatalf("RunMatrix: %v", err)
	}
	for _, sc := range rep.Scenarios {
		want := 0
		for _, ms := range mustMatrix(t) {
			if ms.Name == sc.Name {
				want = ms.GateCount()
			}
		}
		if sc.Name == "e2e-samurai-run" {
			want = e2eGateCount
		}
		if len(sc.Gates) != want {
			t.Errorf("%s: %d gates emitted, GateCount says %d", sc.Name, len(sc.Gates), want)
		}
		for _, g := range sc.Gates {
			if !g.Pass {
				t.Errorf("%s/%s (%s): p=%g < alpha=%g (value %g, ref %g, n %d)",
					sc.Name, g.Name, g.Statistic, g.PValue, g.Alpha, g.Value, g.Ref, g.N)
			}
		}
	}
	if !rep.Pass {
		t.Fatalf("report failed")
	}
	if rep.PerGateAlpha <= 0 || rep.PerGateAlpha > rep.Alpha {
		t.Fatalf("per-gate alpha %g inconsistent with budget %g", rep.PerGateAlpha, rep.Alpha)
	}
}

func mustMatrix(t *testing.T) []Scenario {
	t.Helper()
	scenarios, err := Matrix()
	if err != nil {
		t.Fatalf("Matrix: %v", err)
	}
	return scenarios
}

// TestReportDeterministic is the bit-identity acceptance criterion: a
// fixed master seed must yield a byte-identical JSON report.
func TestReportDeterministic(t *testing.T) {
	run := func() []byte {
		rep, err := RunMatrix(Options{Seed: 99, E2E: false})
		if err != nil {
			t.Fatalf("RunMatrix: %v", err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return b
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("reports differ between identical runs:\n%s\n---\n%s", a, b)
	}
	// A different seed must actually change the sampled statistics.
	rep2, err := RunMatrix(Options{Seed: 100, E2E: false})
	if err != nil {
		t.Fatalf("RunMatrix: %v", err)
	}
	b2, err := json.Marshal(rep2)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if bytes.Equal(a, b2) {
		t.Fatalf("seed change did not change the report")
	}
}

// brokenSimulator scales both propensities by (1+eps) — a thinning
// bug that preserves determinism and path validity, so every golden
// seeded test in the tree would still pass. Only distribution-level
// gates can see it.
func brokenSimulator(eps float64) Simulator {
	return perPath(func(ctx trap.Context, tr trap.Trap, bias *waveform.PWL, t0, t1 float64, r *rng.Stream) (*markov.Path, error) {
		cur := bias.Cursor()
		rates := func(u float64) (lc, le float64) {
			lc, le = ctx.Rates(tr, cur.Eval(u))
			return lc * (1 + eps), le * (1 + eps)
		}
		return markov.UniformiseGeneral(rates, ctx.RateSum(tr)*(1+eps), tr.InitFilled, t0, t1, r)
	})
}

// TestBrokenThinningCaught is the detection-power acceptance criterion:
// an off-by-ε thinning probability must be rejected, and specifically
// by at least one KS or chi-square gate.
func TestBrokenThinningCaught(t *testing.T) {
	sc := mustMatrix(t)[0] // const-active: every gate family applies
	budget := Budget{Alpha: DefaultAlpha, Gates: sc.GateCount()}
	sr, err := RunScenario(sc, brokenSimulator(0.3), rng.New(5), budget)
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	if sr.Pass {
		t.Fatalf("broken thinning (eps=0.3) passed the %s gate battery", sc.Name)
	}
	distCaught := false
	for _, g := range sr.Gates {
		if !g.Pass && (g.Statistic == "ks-dkw" || g.Statistic == "chi2") {
			distCaught = true
			t.Logf("caught by %s (%s): D/stat=%g p=%g", g.Name, g.Statistic, g.Value, g.PValue)
		}
	}
	if !distCaught {
		t.Fatalf("no KS/chi-square gate rejected the broken simulator; gates: %+v", sr.Gates)
	}
}

// TestBrokenSimulatorSanity: an honest implementation routed through
// the same UniformiseGeneral code path (eps=0) must still pass, so the
// broken-thinning rejection above is attributable to the ε alone.
func TestBrokenSimulatorSanity(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical battery skipped in -short")
	}
	sc := mustMatrix(t)[0]
	budget := Budget{Alpha: DefaultAlpha, Gates: sc.GateCount()}
	sr, err := RunScenario(sc, brokenSimulator(0), rng.New(5), budget)
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	if !sr.Pass {
		t.Fatalf("eps=0 general-kernel run failed the battery: %+v", sr.Gates)
	}
}

// TestScenarioErrorPropagates: a simulator error must surface, not be
// folded into a report.
func TestScenarioErrorPropagates(t *testing.T) {
	sc := mustMatrix(t)[0]
	bad := func(ctx trap.Context, traps []trap.Trap, bias *waveform.PWL, t0, t1 float64, r *rng.Stream) ([]*markov.Path, error) {
		return nil, markov.ErrBadInterval
	}
	if _, err := RunScenario(sc, bad, rng.New(1), Budget{Alpha: DefaultAlpha, Gates: sc.GateCount()}); err == nil {
		t.Fatalf("simulator error swallowed")
	}
}
