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

// sequential is the reference kernel lifted to the Simulator seam: a
// per-path loop over markov.Uniformise.
var sequential = perPath(func(ctx trap.Context, tr trap.Trap, bias *waveform.PWL, t0, t1 float64, r *rng.Stream) (*markov.Path, error) {
	return markov.Uniformise(ctx, tr, markov.PWLBias(bias), t0, t1, r)
})

// perPath lifts a single-path kernel to the ensemble Simulator seam:
// path k is drawn from r.Split(k), the derivation markov.BatchState.Run
// uses for lane k.
func perPath(sim func(ctx trap.Context, tr trap.Trap, bias *waveform.PWL, t0, t1 float64, r *rng.Stream) (*markov.Path, error)) Simulator {
	return func(ctx trap.Context, traps []trap.Trap, bias *waveform.PWL, t0, t1 float64, r *rng.Stream) ([]*markov.Path, error) {
		paths := make([]*markov.Path, len(traps))
		var child rng.Stream
		for k, tr := range traps {
			r.SplitInto(uint64(k), &child)
			p, err := sim(ctx, tr, bias, t0, t1, &child)
			if err != nil {
				return nil, err
			}
			paths[k] = p
		}
		return paths, nil
	}
}

// TestBatchKernelReportIdentical pins the production kernel that vv
// gates to its sequential reference: because BatchState lane k splits
// the scenario stream exactly as a per-path loop over markov.Uniformise
// does, the conformance report drawn through DefaultSimulator must be
// byte-identical to the one drawn through the sequential kernel. Any
// SoA-layout or chunked-draw bug that perturbs a single accept decision
// in any of the matrix's ensembles breaks this.
func TestBatchKernelReportIdentical(t *testing.T) {
	bat, err := RunMatrix(Options{Seed: 1, E2E: false})
	if err != nil {
		t.Fatalf("batch RunMatrix: %v", err)
	}
	seq, err := RunMatrix(Options{Seed: 1, E2E: false, Sim: sequential})
	if err != nil {
		t.Fatalf("sequential RunMatrix: %v", err)
	}
	if !bat.Pass {
		t.Errorf("batch kernel failed the conformance matrix")
	}
	a, err := json.Marshal(seq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(bat)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("batch and sequential reports diverge:\n%s\n---\n%s", a, b)
	}
}

// TestRunScenarioBatchMatchesSequential pins the per-scenario identity
// at path granularity for the first matrix row, so a divergence is
// attributable before the whole-report diff above triggers.
func TestRunScenarioBatchMatchesSequential(t *testing.T) {
	sc := mustMatrix(t)[0]
	budget := Budget{Alpha: DefaultAlpha, Gates: sc.GateCount()}
	seq, err := RunScenario(sc, sequential, rng.New(11), budget)
	if err != nil {
		t.Fatalf("sequential RunScenario: %v", err)
	}
	bat, err := RunScenario(sc, DefaultSimulator, rng.New(11), budget)
	if err != nil {
		t.Fatalf("batch RunScenario: %v", err)
	}
	a, _ := json.Marshal(seq)
	b, _ := json.Marshal(bat)
	if !bytes.Equal(a, b) {
		t.Fatalf("scenario reports differ:\n%s\n---\n%s", a, b)
	}
}
