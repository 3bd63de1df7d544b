package montecarlo

import (
	"context"
	"math"
	"runtime"
	"testing"

	"samurai/internal/rng"
	"samurai/internal/sram"
)

// rareTestRunner is a pure function of the sampled per-cell inputs —
// the property samurai.RareArrayRunnerCtx has. The log-LR and glitch
// depth derive deterministically from (seed, tiltEV); at tilt 0 the
// log-LR is exactly 0 and the counts match rareNaiveTwin below.
func rareTestRunner(_ context.Context, cell sram.CellConfig, _ sram.Pattern, _, tiltEV float64, seed uint64) (int, int, int, float64, float64, error) {
	r := rng.New(seed)
	u := r.Float64()
	glitch := 1.25 * u
	errs := 0
	if glitch > 1 {
		errs = 1
	}
	logLR := 0.0
	if tiltEV != 0 {
		logLR = tiltEV * (u - 0.5)
	}
	return errs, int(seed % 3), int(seed % 13), logLR, glitch, nil
}

// rareNaiveTwin is the untilted CtxRunner producing the same counts as
// rareTestRunner at tilt 0 — the naive sweep the tilt-0 identity test
// compares against.
func rareNaiveTwin(ctx context.Context, cell sram.CellConfig, p sram.Pattern, scale float64, seed uint64) (int, int, int, error) {
	errs, slow, traps, _, _, err := rareTestRunner(ctx, cell, p, scale, 0, seed)
	return errs, slow, traps, err
}

func rareSpec(tilt float64) *RareEventSpec {
	return &RareEventSpec{TiltEV: tilt, Runner: rareTestRunner}
}

// assertRareBitIdentical extends assertBitIdentical with the rare
// fields — the determinism contract covers LogLR and GlitchDepth too.
func assertRareBitIdentical(t *testing.T, got, want []CellOutcome) {
	t.Helper()
	assertBitIdentical(t, got, want)
	for i := range want {
		if math.Float64bits(got[i].LogLR) != math.Float64bits(want[i].LogLR) {
			t.Fatalf("cell %d LogLR %x, want %x", i, math.Float64bits(got[i].LogLR), math.Float64bits(want[i].LogLR))
		}
		if math.Float64bits(got[i].GlitchDepth) != math.Float64bits(want[i].GlitchDepth) {
			t.Fatalf("cell %d GlitchDepth differs", i)
		}
	}
}

func assertRareStatsBitIdentical(t *testing.T, got, want *ArrayResult) {
	t.Helper()
	if got.Rare == nil || want.Rare == nil {
		t.Fatalf("missing rare aggregate: %v vs %v", got.Rare, want.Rare)
	}
	g, w := *got.Rare, *want.Rare
	if g.N != w.N ||
		math.Float64bits(g.PFail) != math.Float64bits(w.PFail) ||
		math.Float64bits(g.ESS) != math.Float64bits(w.ESS) ||
		math.Float64bits(g.LRVar) != math.Float64bits(w.LRVar) ||
		math.Float64bits(g.CIHalf) != math.Float64bits(w.CIHalf) ||
		math.Float64bits(g.CVAdjusted) != math.Float64bits(w.CVAdjusted) {
		t.Fatalf("rare aggregates differ:\n%+v\n%+v", g, w)
	}
}

// TestRareSweepWorkersBitIdentical: a tilted sweep's outcomes and
// weighted aggregate are invariant across worker counts.
func TestRareSweepWorkersBitIdentical(t *testing.T) {
	cfg := resumeTestConfig()
	cfg.Workers = 1
	base, err := RunArrayCtx(context.Background(), cfg, nil, ArrayOptions{RareEvent: rareSpec(-0.1)})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
		cfg.Workers = w
		res, err := RunArrayCtx(context.Background(), cfg, nil, ArrayOptions{RareEvent: rareSpec(-0.1)})
		if err != nil {
			t.Fatal(err)
		}
		assertRareBitIdentical(t, res.Outcomes, base.Outcomes)
		assertRareStatsBitIdentical(t, res, base)
	}
}

// TestRareSweepTiltZeroMatchesNaive: at tilt 0 the rare sweep's counts
// equal the naive sweep's bit for bit, every weight is exactly 1, and
// the weighted estimate degenerates to the plain error rate.
func TestRareSweepTiltZeroMatchesNaive(t *testing.T) {
	cfg := resumeTestConfig()
	naive, err := RunArrayCtx(context.Background(), cfg, rareNaiveTwin, ArrayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rare, err := RunArrayCtx(context.Background(), cfg, nil, ArrayOptions{RareEvent: rareSpec(0)})
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, rare.Outcomes, naive.Outcomes)
	for i, o := range rare.Outcomes {
		if math.Float64bits(o.LogLR) != 0 {
			t.Fatalf("cell %d tilt-0 LogLR = %g, want exactly +0.0", i, o.LogLR)
		}
	}
	if rare.NumFailed != naive.NumFailed || rare.ErrorRate != naive.ErrorRate {
		t.Fatalf("tilt-0 aggregates differ: %d/%g vs %d/%g",
			rare.NumFailed, rare.ErrorRate, naive.NumFailed, naive.ErrorRate)
	}
	st := rare.Rare
	if st == nil {
		t.Fatal("rare sweep carried no aggregate")
	}
	if math.Float64bits(st.PFail) != math.Float64bits(naive.ErrorRate) {
		t.Fatalf("tilt-0 PFail %g != error rate %g", st.PFail, naive.ErrorRate)
	}
	if math.Float64bits(st.ESS) != math.Float64bits(float64(cfg.Cells)) {
		t.Fatalf("tilt-0 ESS %g, want exactly %d", st.ESS, cfg.Cells)
	}
	if math.Float64bits(st.LRVar) != 0 {
		t.Fatalf("tilt-0 LR variance %g, want exactly 0", st.LRVar)
	}
}

// TestRareSweepDrainResumeBitIdentical: the drain-and-resume contract
// extends to rare sweeps — outcomes carry their log-LR, so a drained
// range plus the rerun of its undone cells reproduces the weighted
// aggregate bit for bit.
func TestRareSweepDrainResumeBitIdentical(t *testing.T) {
	cfg := resumeTestConfig()
	spec := rareSpec(0.07)
	baseline, err := RunArrayCtx(context.Background(), cfg, nil, ArrayOptions{RareEvent: spec})
	if err != nil {
		t.Fatal(err)
	}
	for _, stopAfter := range []int{1, 9, 21} {
		t.Run("", func(t *testing.T) {
			merged := drainThenRerun(t, cfg, 0, cfg.Cells, spec.Runner, spec.TiltEV, stopAfter)
			resumed := Aggregate(merged, spec)
			assertRareBitIdentical(t, resumed.Outcomes, baseline.Outcomes)
			assertRareStatsBitIdentical(t, resumed, baseline)
		})
	}
}

// TestRareSweepSubsetMerge: sharding a rare sweep into index ranges and
// aggregating the merged outcomes yields the whole-sweep aggregate bit
// for bit — the fabric merge invariant.
func TestRareSweepSubsetMerge(t *testing.T) {
	cfg := resumeTestConfig()
	spec := rareSpec(-0.04)
	baseline, err := RunArrayCtx(context.Background(), cfg, nil, ArrayOptions{RareEvent: spec})
	if err != nil {
		t.Fatal(err)
	}
	merged := make([]CellOutcome, cfg.Cells)
	for _, r := range [][2]int{{0, 11}, {11, 24}, {24, 32}} {
		err := RunRange(context.Background(), cfg, r[0], r[1], spec.Runner, spec.TiltEV, nil,
			func(o CellOutcome) { merged[o.Index] = o })
		if err != nil {
			t.Fatalf("shard %v: %v", r, err)
		}
	}
	full := Aggregate(merged, spec)
	assertRareBitIdentical(t, full.Outcomes, baseline.Outcomes)
	assertRareStatsBitIdentical(t, full, baseline)
}

// TestRareSweepGolden pins the weighted aggregate of the fixed test
// sweep as raw float bits — any change to stream derivation, weight
// accumulation order or estimator arithmetic shows up here.
func TestRareSweepGolden(t *testing.T) {
	cfg := resumeTestConfig()
	res, err := RunArrayCtx(context.Background(), cfg, nil, ArrayOptions{RareEvent: rareSpec(-0.1)})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Rare
	if st == nil {
		t.Fatal("no rare aggregate")
	}
	// Golden values recorded from the first run of this fixture.
	const (
		wantESS    = 0x403ff743105787a5
		wantCIHalf = 0x3fc1eed13ff1bc19
		wantPFail  = 0x3fcaf4976d7582dd
	)
	if math.Float64bits(st.ESS) != wantESS ||
		math.Float64bits(st.CIHalf) != wantCIHalf ||
		math.Float64bits(st.PFail) != wantPFail {
		t.Fatalf("golden mismatch: ESS %#x CIHalf %#x PFail %#x",
			math.Float64bits(st.ESS), math.Float64bits(st.CIHalf), math.Float64bits(st.PFail))
	}
}

// TestRareSweepValidation: a rare sweep without a runner fails loudly.
func TestRareSweepValidation(t *testing.T) {
	cfg := resumeTestConfig()
	if _, err := RunArrayCtx(context.Background(), cfg, nil, ArrayOptions{RareEvent: &RareEventSpec{TiltEV: 0.1}}); err == nil {
		t.Fatal("nil rare runner accepted")
	}
}
