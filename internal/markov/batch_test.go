package markov

import (
	"math"
	"testing"

	"samurai/internal/rng"
	"samurai/internal/trap"
	"samurai/internal/waveform"
)

// batchTestProfile builds a profile of n traps spanning depths and
// energies so the lanes cover fast, slow, skewed and near-pinned traps.
func batchTestProfile(ctx trap.Context, n int) trap.Profile {
	traps := make([]trap.Trap, n)
	for i := range traps {
		frac := 0.3 + 0.4*float64(i)/float64(n)
		traps[i] = trap.Trap{
			Y:          frac * ctx.Tox,
			E:          -0.04 + 0.08*float64(i%5)/4,
			InitFilled: i%2 == 0,
		}
	}
	return trap.Profile{Ctx: ctx, Traps: traps}
}

// batchBiases covers the three PWL shapes the kernel special-cases:
// constant (single-point PWL), step (flat segments joined by sharp
// ramps, candidates landing exactly on breakpoints are possible), and
// a multi-segment ramp (every candidate interpolates).
func batchBiases() map[string]*waveform.PWL {
	step, err := waveform.Step([]float64{0, 3e-4, 6e-4}, []float64{1.2, 0.4, 1.0}, 1e-8)
	if err != nil {
		panic(err)
	}
	ramp := &waveform.PWL{
		T: []float64{0, 2e-4, 5e-4, 9e-4},
		V: []float64{0.2, 1.2, 0.7, 1.1},
	}
	return map[string]*waveform.PWL{
		"const": waveform.Constant(1.2),
		"step":  step,
		"ramp":  ramp,
	}
}

// TestBatchMatchesSequential is the tentpole's determinism pin: every
// lane of the batch kernel must be bit-identical (Float64bits) to the
// sequential Uniformise run with the same split stream, across
// constant, step and ramp biases.
func TestBatchMatchesSequential(t *testing.T) {
	ctx := testCtx()
	for name, bias := range batchBiases() {
		t.Run(name, func(t *testing.T) {
			pr := batchTestProfile(ctx, 23)
			root := rng.New(42)
			t0, tf := 0.0, 1e-3

			got, err := UniformiseProfileBatch(pr, bias, t0, tf, root)
			if err != nil {
				t.Fatal(err)
			}
			want, err := UniformiseProfile(pr, PWLBias(bias), t0, tf, root)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("lane count %d, want %d", len(got), len(want))
			}
			total := 0
			for k := range want {
				w, g := want[k], got[k]
				if err := g.Validate(); err != nil {
					t.Fatalf("lane %d: invalid path: %v", k, err)
				}
				if len(g.Times) != len(w.Times) {
					t.Fatalf("lane %d: %d events, want %d", k, len(g.Times)-1, len(w.Times)-1)
				}
				for i := range w.Times {
					if math.Float64bits(g.Times[i]) != math.Float64bits(w.Times[i]) {
						t.Fatalf("lane %d event %d: %x != %x (%g vs %g)",
							k, i, math.Float64bits(g.Times[i]), math.Float64bits(w.Times[i]),
							g.Times[i], w.Times[i])
					}
					if g.Filled[i] != w.Filled[i] {
						t.Fatalf("lane %d event %d: state mismatch", k, i)
					}
				}
				total += len(w.Times) - 1
			}
			if total == 0 {
				t.Fatal("degenerate fixture: no transitions in any lane")
			}
		})
	}
}

// TestBatchWorkspaceReuse reuses one BatchState across runs of varying
// lane counts and checks results stay identical to fresh states — the
// workspace must be fully re-initialised per Run.
func TestBatchWorkspaceReuse(t *testing.T) {
	ctx := testCtx()
	bias := batchBiases()["ramp"]
	bs := NewBatchState()
	for _, n := range []int{7, 3, 11} {
		pr := batchTestProfile(ctx, n)
		root := rng.New(uint64(1000 + n))
		got, err := bs.Run(pr.Ctx, pr.Traps, bias, 0, 5e-4, root)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewBatchState().Run(pr.Ctx, pr.Traps, bias, 0, 5e-4, root)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if len(got[k].Times) != len(want[k].Times) {
				t.Fatalf("n=%d lane %d: reused state diverged", n, k)
			}
			for i := range want[k].Times {
				if math.Float64bits(got[k].Times[i]) != math.Float64bits(want[k].Times[i]) {
					t.Fatalf("n=%d lane %d event %d: reused state diverged", n, k, i)
				}
			}
		}
	}
}

// TestBatchCandidateTimesCrossSegments places breakpoints so densely
// that lanes repeatedly cross segment boundaries mid-path, exercising
// the resume-at-segment-boundary logic against the sequential oracle.
func TestBatchCandidateTimesCrossSegments(t *testing.T) {
	ctx := testCtx()
	// ~50 breakpoints over the horizon: segment dwell far below the mean
	// candidate spacing for the slow lanes, far above for fast lanes.
	nBp := 50
	T := make([]float64, nBp)
	V := make([]float64, nBp)
	for i := range T {
		T[i] = 1e-3 * float64(i) / float64(nBp-1)
		V[i] = 0.6 + 0.6*math.Sin(float64(i)*0.7)
	}
	bias := &waveform.PWL{T: T, V: V}
	pr := batchTestProfile(ctx, 16)
	root := rng.New(7)
	got, err := UniformiseProfileBatch(pr, bias, 0, 1e-3, root)
	if err != nil {
		t.Fatal(err)
	}
	want, err := UniformiseProfile(pr, PWLBias(bias), 0, 1e-3, root)
	if err != nil {
		t.Fatal(err)
	}
	for k := range want {
		if len(got[k].Times) != len(want[k].Times) {
			t.Fatalf("lane %d: %d events, want %d", k, len(got[k].Times)-1, len(want[k].Times)-1)
		}
		for i := range want[k].Times {
			if math.Float64bits(got[k].Times[i]) != math.Float64bits(want[k].Times[i]) {
				t.Fatalf("lane %d event %d differs", k, i)
			}
		}
	}
}

func TestBatchBadInterval(t *testing.T) {
	ctx := testCtx()
	pr := batchTestProfile(ctx, 2)
	if _, err := UniformiseProfileBatch(pr, waveform.Constant(1.2), 1, 1, rng.New(1)); err != ErrBadInterval {
		t.Fatal("empty interval accepted")
	}
}

func TestBatchEmptyProfile(t *testing.T) {
	ctx := testCtx()
	paths, err := NewBatchState().Run(ctx, nil, waveform.Constant(1.2), 0, 1e-4, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 0 {
		t.Fatalf("expected no paths, got %d", len(paths))
	}
}
