package markov

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"samurai/internal/rng"
	"samurai/internal/trap"
	"samurai/internal/waveform"
)

func tiltTestCtx() trap.Context { return trap.DefaultContext(1.9e-9, 1.2) }

// fuzzedPWL draws a random piecewise-linear bias profile with nSeg
// breakpoints over [0, horizon] and values in [0.8, 1.5] — a
// deterministic pseudo-fuzz: the generating stream has a fixed seed,
// so the profile set is stable run to run (testseed).
func fuzzedPWL(t *testing.T, r *rng.Stream, horizon float64, nSeg int) *waveform.PWL {
	t.Helper()
	times := make([]float64, nSeg)
	vals := make([]float64, nSeg)
	for i := range times {
		times[i] = r.Float64() * horizon
		vals[i] = 0.8 + 0.7*r.Float64()
	}
	sort.Float64s(times)
	// Deduplicate breakpoints: PWL wants strictly increasing times.
	outT, outV := times[:1], vals[:1]
	for i := 1; i < nSeg; i++ {
		if times[i] > outT[len(outT)-1] {
			outT = append(outT, times[i])
			outV = append(outV, vals[i])
		}
	}
	w, err := waveform.New(outT, outV)
	if err != nil {
		t.Fatalf("fuzzed PWL: %v", err)
	}
	return w
}

// TestTiltZeroBitIdentical pins the tilt-0 contract: with tiltEV == 0
// the tilted kernel consumes the stream identically to Uniformise,
// produces a bit-identical path, and accumulates a log-LR of exactly
// +0.0 — not merely a small number.
func TestTiltZeroBitIdentical(t *testing.T) {
	ctx := tiltTestCtx()
	tr := trap.Trap{Y: 0.45 * ctx.Tox, E: 0.03}
	horizon := 200 / ctx.RateSum(tr)
	gen := rng.New(7)
	for trial := 0; trial < 20; trial++ {
		bias := fuzzedPWL(t, gen, horizon, 6)
		naive, err := Uniformise(ctx, tr, PWLBias(bias), 0, horizon, rng.New(uint64(100+trial)))
		if err != nil {
			t.Fatal(err)
		}
		tilted, logLR, err := UniformiseTilted(ctx, tr, PWLBias(bias), 0, horizon, 0, rng.New(uint64(100+trial)), nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(logLR) != 0 {
			t.Fatalf("trial %d: tilt-0 logLR = %g (bits %x), want exactly +0.0", trial, logLR, math.Float64bits(logLR))
		}
		if len(tilted.Times) != len(naive.Times) {
			t.Fatalf("trial %d: %d transitions, want %d", trial, len(tilted.Times), len(naive.Times))
		}
		for i := range naive.Times {
			if math.Float64bits(tilted.Times[i]) != math.Float64bits(naive.Times[i]) {
				t.Fatalf("trial %d: transition %d at %x, want %x", trial, i,
					math.Float64bits(tilted.Times[i]), math.Float64bits(naive.Times[i]))
			}
			if tilted.Filled[i] != naive.Filled[i] {
				t.Fatalf("trial %d: state %d differs", trial, i)
			}
		}
	}
}

// TestTiltLogLRRecompute is the exact-likelihood property test: the
// incrementally accumulated log-LR must equal the post-hoc
// recomputation from the recorded candidate history to the bit,
// across fuzzed bias profiles and tilt strengths.
func TestTiltLogLRRecompute(t *testing.T) {
	ctx := tiltTestCtx()
	gen := rng.New(11)
	tilts := []float64{0, 0.02, -0.05, 0.09, -0.13}
	var rec ThinningRecord
	for trial := 0; trial < 30; trial++ {
		tr := trap.Trap{Y: (0.2 + 0.6*gen.Float64()) * ctx.Tox, E: 0.12 * (gen.Float64() - 0.5)}
		horizon := (50 + 200*gen.Float64()) / ctx.RateSum(tr)
		bias := fuzzedPWL(t, gen, horizon, 8)
		tilt := tilts[trial%len(tilts)]
		_, inc, err := UniformiseTilted(ctx, tr, PWLBias(bias), 0, horizon, tilt, rng.New(uint64(300+trial)), &rec)
		if err != nil {
			t.Fatal(err)
		}
		post := RecomputeLogLR(ctx, tr, PWLBias(bias), tilt, &rec)
		if math.Float64bits(inc) != math.Float64bits(post) {
			t.Fatalf("trial %d (tilt %g): incremental logLR %x != recomputed %x",
				trial, tilt, math.Float64bits(inc), math.Float64bits(post))
		}
	}
}

// TestTiltRecordReplaysPath checks the thinning record is a faithful
// transcript: replaying its accepted candidates reproduces the path.
func TestTiltRecordReplaysPath(t *testing.T) {
	ctx := tiltTestCtx()
	tr := trap.Trap{Y: 0.45 * ctx.Tox, E: 0.02}
	horizon := 150 / ctx.RateSum(tr)
	bias := waveform.Constant(1.2)
	var rec ThinningRecord
	p, _, err := UniformiseTilted(ctx, tr, PWLBias(bias), 0, horizon, -0.04, rng.New(5), &rec)
	if err != nil {
		t.Fatal(err)
	}
	var accepted []float64
	for i, ti := range rec.Times {
		if rec.Accepts[i] {
			accepted = append(accepted, ti)
		}
	}
	if len(accepted) != len(p.Times)-1 {
		t.Fatalf("record holds %d accepts, path has %d transitions", len(accepted), len(p.Times)-1)
	}
	for i, ti := range accepted {
		if math.Float64bits(ti) != math.Float64bits(p.Times[i+1]) {
			t.Fatalf("accept %d at %x, path transition at %x", i, math.Float64bits(ti), math.Float64bits(p.Times[i+1]))
		}
	}
}

// TestRunTiltedMatchesSequential pins the profile-level tilted kernel
// that samurai.RunCtx calls: trap k must be bit-identical to the
// sequential tilted kernel on Split(k), the profile log-LR must be the
// per-trap log-LRs summed in trap order, and at tilt 0 the paths must
// equal UniformiseProfileBatch's with a log-LR of exactly 0 — the pair
// of kernels the methodology switches between on Config.TiltEV.
func TestRunTiltedMatchesSequential(t *testing.T) {
	ctx := tiltTestCtx()
	tr := trap.Trap{Y: 0.45 * ctx.Tox, E: 0.05}
	horizon := 120 / ctx.RateSum(tr)
	bias := fuzzedPWL(t, rng.New(17), horizon, 5)
	pr := trap.Profile{Ctx: ctx, Traps: make([]trap.Trap, 16)}
	for i := range pr.Traps {
		pr.Traps[i] = tr
	}
	samePaths := func(what string, got, want []*Path) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d paths, want %d", what, len(got), len(want))
		}
		for k := range want {
			if len(got[k].Times) != len(want[k].Times) {
				t.Fatalf("%s: trap %d transition count differs", what, k)
			}
			for i := range want[k].Times {
				if math.Float64bits(got[k].Times[i]) != math.Float64bits(want[k].Times[i]) {
					t.Fatalf("%s: trap %d transition %d differs", what, k, i)
				}
			}
		}
	}
	for ti, tilt := range []float64{0, -0.06} {
		paths, logLR, err := UniformiseProfileTilted(pr, PWLBias(bias), 0, horizon, tilt, rng.New(23))
		if err != nil {
			t.Fatal(err)
		}
		parent := rng.New(23)
		var child rng.Stream
		want := make([]*Path, len(pr.Traps))
		wantLR := 0.0
		for k := range pr.Traps {
			parent.SplitInto(uint64(k), &child)
			p, lr, err := UniformiseTilted(ctx, pr.Traps[k], PWLBias(bias), 0, horizon, tilt, &child, nil)
			if err != nil {
				t.Fatal(err)
			}
			want[k] = p
			wantLR += lr
		}
		samePaths(fmt.Sprintf("tilt %g vs sequential", tilt), paths, want)
		if math.Float64bits(logLR) != math.Float64bits(wantLR) {
			t.Fatalf("tilt %g: profile logLR %x, want %x", tilt, math.Float64bits(logLR), math.Float64bits(wantLR))
		}
		if ti != 0 {
			continue
		}
		if math.Float64bits(logLR) != 0 {
			t.Fatalf("tilt 0: logLR %g, want exactly 0", logLR)
		}
		naive, err := UniformiseProfileBatch(pr, bias, 0, horizon, rng.New(23))
		if err != nil {
			t.Fatal(err)
		}
		samePaths("tilt 0 vs UniformiseProfileBatch", paths, naive)
	}
}

// TestTiltedWeightsUnbiased is a kernel-level sanity bound: the mean
// importance weight over many tilted paths concentrates at 1 (the
// likelihood ratio integrates to 1 under the sampling law). The vv
// conformance rows gate this properly; here a loose 5-sigma band
// guards the kernel in isolation.
func TestTiltedWeightsUnbiased(t *testing.T) {
	ctx := tiltTestCtx()
	tr := trap.Trap{Y: 0.45 * ctx.Tox, E: 0.10}
	horizon := 60 / ctx.RateSum(tr)
	bias := waveform.Constant(1.2)
	const n = 4000
	parent := rng.New(41)
	var child rng.Stream
	sum, sum2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		parent.SplitInto(uint64(i), &child)
		_, lr, err := UniformiseTilted(ctx, tr, PWLBias(bias), 0, horizon, -0.05, &child, nil)
		if err != nil {
			t.Fatal(err)
		}
		w := math.Exp(lr)
		sum += w
		sum2 += w * w
	}
	mean := sum / n
	sd := math.Sqrt((sum2/n - mean*mean) / n)
	if math.Abs(mean-1) > 5*sd {
		t.Fatalf("mean weight %g ± %g not compatible with 1", mean, sd)
	}
}
