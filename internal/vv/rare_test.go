package vv

import (
	"math"
	"testing"

	"samurai/internal/markov"
	"samurai/internal/rng"
	"samurai/internal/trap"
	"samurai/internal/waveform"
)

// TestRareMatrixPasses is the unbiasedness acceptance criterion: the
// importance-sampling estimate must match the closed-form Master
// reference within the Bonferroni budget for every tilt strength —
// including tilt 0, where the identity gates are exact — across
// several master seeds.
func TestRareMatrixPasses(t *testing.T) {
	seeds := []uint64{1, 2}
	if !testing.Short() {
		seeds = append(seeds, 3, 17)
	}
	for _, seed := range seeds {
		rep, err := RunRareMatrix(Options{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !rep.Pass {
			for _, sc := range rep.Scenarios {
				for _, g := range sc.Gates {
					if !g.Pass {
						t.Errorf("seed %d: %s/%s failed (value %g, p %g)", seed, sc.Name, g.Name, g.Value, g.PValue)
					}
				}
			}
			t.Fatalf("seed %d: rare matrix failed", seed)
		}
		tilts := map[float64]bool{}
		for _, sc := range rep.Scenarios {
			if sc.Rare == nil {
				t.Fatalf("seed %d: row %s carries no rare aggregate", seed, sc.Name)
			}
			tilts[sc.Rare.TiltEV] = true
		}
		if len(tilts) < 3 || !tilts[0] {
			t.Fatalf("seed %d: want >= 3 tilt strengths including 0, got %v", seed, tilts)
		}
	}
}

// TestRareTiltZeroExact pins the tilt-0 row's exact contracts: the
// naive-identity and unit-weight gates are "exact" statistics, the ESS
// is exactly the path count and the LR variance exactly 0.
func TestRareTiltZeroExact(t *testing.T) {
	rep, err := RunRareMatrix(Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var row *ScenarioReport
	for i := range rep.Scenarios {
		if rep.Scenarios[i].Name == "rare-tilt0" {
			row = &rep.Scenarios[i]
		}
	}
	if row == nil {
		t.Fatal("no rare-tilt0 row in the rare matrix")
	}
	found := map[string]bool{}
	for _, g := range row.Gates {
		if g.Statistic == "exact" {
			found[g.Name] = true
			if !g.Pass || math.Float64bits(g.Value) != 0 {
				t.Fatalf("exact gate %s: value %g pass %v", g.Name, g.Value, g.Pass)
			}
		}
	}
	for _, name := range []string{"rare-weight-mean", "rare-lr-exact", "rare-tilt0-naive-identity"} {
		if !found[name] {
			t.Fatalf("tilt-0 row missing exact gate %s (gates: %+v)", name, row.Gates)
		}
	}
	st := row.Rare
	if math.Float64bits(st.ESS) != math.Float64bits(float64(row.Paths)) {
		t.Fatalf("tilt-0 ESS %g, want exactly %d", st.ESS, row.Paths)
	}
	if math.Float64bits(st.LRVar) != 0 {
		t.Fatalf("tilt-0 LR variance %g, want exactly 0", st.LRVar)
	}
}

// brokenWeightSimulator wraps the production tilted kernel but drops
// the LAST candidate's log-LR factor from every path — the classic
// bookkeeping bug where one thinning term is missed. The path itself
// and the thinning record stay honest. The last term is the one a
// mean-based gate has power against: dropping an *early* factor
// leaves the remaining product a conditional likelihood ratio (its
// mean is still exactly 1 by the martingale property, and the
// equilibrated occupancy forgets the early state to within e^-12), so
// only the exact incremental-vs-recompute gate would see it. The last
// factor is correlated with the terminal state, so its loss shifts
// the occupancy estimate by orders of magnitude.
func brokenWeightSimulator(ctx trap.Context, tr trap.Trap, bias *waveform.PWL, t0, t1, tiltEV float64, r *rng.Stream, rec *markov.ThinningRecord) (*markov.Path, float64, error) {
	var local markov.ThinningRecord
	p, logLR, err := markov.UniformiseTilted(ctx, tr, markov.PWLBias(bias), t0, t1, tiltEV, r, &local)
	if err != nil {
		return nil, 0, err
	}
	if n := len(local.Times); n > 0 {
		// Recomputing over the first n-1 candidates IS the sum with the
		// last term dropped (RecomputeLogLR replays in candidate order).
		prefix := markov.ThinningRecord{Times: local.Times[:n-1], Accepts: local.Accepts[:n-1]}
		logLR = markov.RecomputeLogLR(ctx, tr, markov.PWLBias(bias), tiltEV, &prefix)
	}
	if rec != nil {
		rec.Times = append(rec.Times[:0], local.Times...)
		rec.Accepts = append(rec.Accepts[:0], local.Accepts...)
	}
	return p, logLR, nil
}

// honestWrapperSimulator routes through the identical wrapper plumbing
// (local record, copy-out) without dropping the term — the sanity twin
// that attributes the rejection below to the dropped factor alone.
func honestWrapperSimulator(ctx trap.Context, tr trap.Trap, bias *waveform.PWL, t0, t1, tiltEV float64, r *rng.Stream, rec *markov.ThinningRecord) (*markov.Path, float64, error) {
	var local markov.ThinningRecord
	p, logLR, err := markov.UniformiseTilted(ctx, tr, markov.PWLBias(bias), t0, t1, tiltEV, r, &local)
	if err != nil {
		return nil, 0, err
	}
	if rec != nil {
		rec.Times = append(rec.Times[:0], local.Times...)
		rec.Accepts = append(rec.Accepts[:0], local.Accepts...)
	}
	return p, logLR, nil
}

// TestBrokenWeightCaught is the detection-power criterion of the rare
// battery, mirroring TestBrokenThinningCaught: a weight missing one
// log-LR term must be rejected — by the exact incremental-vs-recompute
// gate, and independently by the statistical weight-mean gate (the
// control variate with known mean 1).
func TestBrokenWeightCaught(t *testing.T) {
	rows := RareMatrix()
	var sc RareScenario
	for _, r := range rows {
		if r.Name == "rare-deep" {
			sc = r
		}
	}
	if sc.Name == "" {
		t.Fatal("no rare-deep row")
	}
	budget := Budget{Alpha: DefaultAlpha, Gates: sc.GateCount()}
	sr, err := RunRareScenario(sc, brokenWeightSimulator, rng.New(9), budget)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Pass {
		t.Fatalf("broken weight (dropped LR term) passed the %s battery", sc.Name)
	}
	exactCaught, statCaught := false, false
	for _, g := range sr.Gates {
		if g.Pass {
			continue
		}
		switch {
		case g.Name == "rare-lr-exact":
			exactCaught = true
			t.Logf("caught by %s: %g mismatched paths", g.Name, g.Value)
		case g.Statistic == "clt-z":
			statCaught = true
			t.Logf("caught by %s (%s): z=%g p=%g", g.Name, g.Statistic, g.Value, g.PValue)
		}
	}
	if !exactCaught {
		t.Fatalf("rare-lr-exact did not reject the dropped term; gates: %+v", sr.Gates)
	}
	if !statCaught {
		t.Fatalf("no statistical gate rejected the broken weight; gates: %+v", sr.Gates)
	}
}

// TestBrokenWeightSanity: the honest wrapper through the same plumbing
// passes, so the rejection above is attributable to the dropped term.
func TestBrokenWeightSanity(t *testing.T) {
	rows := RareMatrix()
	var sc RareScenario
	for _, r := range rows {
		if r.Name == "rare-deep" {
			sc = r
		}
	}
	budget := Budget{Alpha: DefaultAlpha, Gates: sc.GateCount()}
	sr, err := RunRareScenario(sc, honestWrapperSimulator, rng.New(9), budget)
	if err != nil {
		t.Fatal(err)
	}
	if !sr.Pass {
		t.Fatalf("honest wrapper failed the battery: %+v", sr.Gates)
	}
}
