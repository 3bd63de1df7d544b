package montecarlo

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"samurai/internal/device"
	"samurai/internal/sram"
)

// resumeTestConfig is the shared array experiment for the resume golden
// tests: big enough that a drain interrupts mid-sweep, small enough to
// stay fast with the fake runner.
func resumeTestConfig() ArrayConfig {
	tech := device.Node("45nm")
	return ArrayConfig{
		Tech: tech, Cell: sram.CellConfig{Tech: tech},
		Pattern: sram.Fig8Pattern(tech.Vdd),
		Cells:   32, Scale: 1, Seed: 23, WithRTN: true,
		Workers: 4,
	}
}

// resumeTestRunner is a pure function of the sampled per-cell inputs —
// exactly the property the real samurai.ArrayRunnerCtx has.
func resumeTestRunner(_ context.Context, cell sram.CellConfig, _ sram.Pattern, _ float64, seed uint64) (int, int, int, error) {
	errs := 0
	if cell.VtShift["M1"] > 0 && seed%4 == 0 {
		errs = 1
	}
	return errs, int(seed % 3), int(seed % 13), nil
}

// assertBitIdentical compares two outcome slices field by field, with
// float64 values compared as raw bits — the resume contract is bitwise,
// not approximate.
func assertBitIdentical(t *testing.T, got, want []CellOutcome) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("outcome count %d, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Index != w.Index || g.TrapCount != w.TrapCount ||
			g.Errors != w.Errors || g.Slow != w.Slow || g.Failed != w.Failed {
			t.Fatalf("cell %d differs: got %+v want %+v", i, g, w)
		}
		if len(g.VtShift) != len(w.VtShift) {
			t.Fatalf("cell %d VtShift size %d, want %d", i, len(g.VtShift), len(w.VtShift))
		}
		for k, wv := range w.VtShift {
			gv, ok := g.VtShift[k]
			if !ok {
				t.Fatalf("cell %d missing VtShift[%q]", i, k)
			}
			if math.Float64bits(gv) != math.Float64bits(wv) {
				t.Fatalf("cell %d VtShift[%q] = %x, want %x (not bit-identical)",
					i, k, math.Float64bits(gv), math.Float64bits(wv))
			}
		}
	}
}

// drainThenRerun is the path jobd takes through an interrupted lease:
// RunRange over [lo, hi) is drained once stopAfter cells have reached
// onCell, and every cell it did not finish runs again as ranges of
// contiguous undone cells. It returns the outcomes of [lo, hi) in index
// order, merged from both passes.
func drainThenRerun(t *testing.T, cfg ArrayConfig, lo, hi int, run RareCtxRunner, tiltEV float64, stopAfter int) []CellOutcome {
	t.Helper()
	merged := make([]CellOutcome, hi-lo)
	finished := make([]bool, hi-lo)
	var mu sync.Mutex
	keep := func(o CellOutcome) int {
		mu.Lock()
		defer mu.Unlock()
		if finished[o.Index-lo] {
			t.Errorf("cell %d reached onCell twice", o.Index)
		}
		merged[o.Index-lo], finished[o.Index-lo] = o, true
		n := 0
		for _, f := range finished {
			if f {
				n++
			}
		}
		return n
	}
	drain := make(chan struct{})
	var once sync.Once
	err := RunRange(context.Background(), cfg, lo, hi, run, tiltEV, drain, func(o CellOutcome) {
		if keep(o) >= stopAfter {
			once.Do(func() { close(drain) })
		}
	})
	if err == nil {
		// The drain raced the last dispatch and the range finished;
		// nothing is left to rerun, which is also a valid outcome.
		return merged
	}
	if !errors.Is(err, ErrDrained) {
		t.Fatalf("interrupted range: %v", err)
	}
	undone := 0
	for i := 0; i < len(finished); {
		if finished[i] {
			i++
			continue
		}
		j := i
		for j < len(finished) && !finished[j] {
			j++
		}
		undone += j - i
		if err := RunRange(context.Background(), cfg, lo+i, lo+j, run, tiltEV, nil, func(o CellOutcome) { keep(o) }); err != nil {
			t.Fatalf("rerun of [%d,%d): %v", lo+i, lo+j, err)
		}
		i = j
	}
	if done := hi - lo - undone; done < stopAfter || undone == 0 {
		t.Fatalf("%d of %d cells finished before ErrDrained, want at least %d and fewer than all", done, hi-lo, stopAfter)
	}
	return merged
}

// TestRunArrayCtxDrainThenResumeBitIdentical is the drain-and-resume
// golden: a range run over the whole array is drained at several
// checkpoint depths, the undone cells run as a second range, and the
// merged outcomes and their Aggregate must be bit-identical to an
// uninterrupted RunArrayCtx.
func TestRunArrayCtxDrainThenResumeBitIdentical(t *testing.T) {
	cfg := resumeTestConfig()
	baseline, err := RunArrayCtx(context.Background(), cfg, resumeTestRunner, ArrayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, stopAfter := range []int{1, 5, 13, 27} {
		t.Run("", func(t *testing.T) {
			merged := drainThenRerun(t, cfg, 0, cfg.Cells, AsRare(resumeTestRunner), 0, stopAfter)
			assertBitIdentical(t, merged, baseline.Outcomes)
			resumed := Aggregate(merged, nil)
			if resumed.NumFailed != baseline.NumFailed ||
				resumed.ErrorRate != baseline.ErrorRate ||
				resumed.MeanTraps != baseline.MeanTraps {
				t.Fatalf("aggregates differ after resume: %+v vs %+v", resumed, baseline)
			}
		})
	}
}

func TestRunArrayCtxCancellation(t *testing.T) {
	cfg := resumeTestConfig()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunArrayCtx(ctx, cfg, resumeTestRunner, ArrayOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled run returned %v, want context.Canceled", err)
	}

	// Cancel mid-run: the runner trips the cancellation after a few cells.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	var n sync.Once
	var mu sync.Mutex
	count := 0
	tripping := func(c context.Context, cell sram.CellConfig, p sram.Pattern, scale float64, seed uint64) (int, int, int, error) {
		mu.Lock()
		count++
		trip := count >= 5
		mu.Unlock()
		if trip {
			n.Do(cancel2)
		}
		return resumeTestRunner(c, cell, p, scale, seed)
	}
	_, err = RunArrayCtx(ctx2, cfg, tripping, ArrayOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel returned %v, want context.Canceled", err)
	}
}

// TestRunArrayCtxDrainAfterLastDispatch: a drain that lands after the
// range's last cell was handed out does not spoil the run, and a drain
// closed before the first dispatch simulates nothing.
func TestRunArrayCtxDrainAfterLastDispatch(t *testing.T) {
	cfg := resumeTestConfig()
	cfg.Workers = 1
	run := AsRare(resumeTestRunner)
	// A one-cell range dispatches its only cell before the cell can
	// finish, so the drain its onCell closes comes too late to matter.
	late := make(chan struct{})
	if err := RunRange(context.Background(), cfg, 7, 8, run, 0, late, func(CellOutcome) { close(late) }); err != nil {
		t.Fatalf("drain after the last dispatch returned %v, want nil", err)
	}
	early := make(chan struct{})
	close(early)
	err := RunRange(context.Background(), cfg, 0, cfg.Cells, run, 0, early, func(o CellOutcome) {
		t.Errorf("drained range simulated cell %d", o.Index)
	})
	if !errors.Is(err, ErrDrained) {
		t.Fatalf("fully drained range returned %v, want ErrDrained", err)
	}
}
