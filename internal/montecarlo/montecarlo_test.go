package montecarlo

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"samurai/internal/device"
	"samurai/internal/rng"
	"samurai/internal/sram"
)

func TestSampleVtShiftsStatistics(t *testing.T) {
	tech := device.Node("45nm")
	cfg := sram.CellConfig{Tech: tech}.Defaults()
	r := rng.New(7)
	const n = 3000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		s := SampleVtShifts(tech, cfg, r.Split(uint64(i)))
		if len(s) != 6 {
			t.Fatalf("expected 6 shifts, got %d", len(s))
		}
		v := s["M5"]
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	// Pull-down area equals the Pelgrom reference → σ = tech.SigmaVt.
	if math.Abs(mean) > 0.1*tech.SigmaVt {
		t.Fatalf("shift mean %g not ≈0", mean)
	}
	if math.Abs(std-tech.SigmaVt) > 0.1*tech.SigmaVt {
		t.Fatalf("shift std %g, want ≈%g", std, tech.SigmaVt)
	}
}

func TestSampleVtShiftsPelgromScaling(t *testing.T) {
	tech := device.Node("45nm")
	cfg := sram.CellConfig{Tech: tech}.Defaults()
	r := rng.New(9)
	const n = 4000
	var sqPD, sqPU float64
	for i := 0; i < n; i++ {
		s := SampleVtShifts(tech, cfg, r.Split(uint64(i)))
		sqPD += s["M5"] * s["M5"]
		sqPU += s["M3"] * s["M3"]
	}
	// Pull-up is half the pull-down width → variance 2×.
	ratio := sqPU / sqPD
	if math.Abs(ratio-2) > 0.3 {
		t.Fatalf("Pelgrom variance ratio = %g, want ≈2", ratio)
	}
}

func TestRunArrayAggregation(t *testing.T) {
	tech := device.Node("45nm")
	cfg := ArrayConfig{
		Tech:    tech,
		Cell:    sram.CellConfig{Tech: tech},
		Pattern: sram.Fig8Pattern(tech.Vdd),
		Cells:   20,
		Scale:   1,
		Seed:    5,
		WithRTN: true,
		Workers: 4,
	}
	// Fake runner: odd cells fail.
	run := func(_ context.Context, cell sram.CellConfig, p sram.Pattern, scale float64, seed uint64) (int, int, int, error) {
		if cell.VtShift == nil {
			return 0, 0, 0, errors.New("no VtShift sampled")
		}
		if seed%2 == 1 {
			return 1, 0, 10, nil
		}
		return 0, 1, 10, nil
	}
	res, err := RunArrayCtx(context.Background(), cfg, run, ArrayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 20 {
		t.Fatalf("outcomes = %d", len(res.Outcomes))
	}
	if res.MeanTraps != 10 {
		t.Fatalf("mean traps = %g", res.MeanTraps)
	}
	if res.NumFailed == 0 || res.NumFailed == 20 {
		t.Fatalf("suspicious failure count %d (seed parity should mix)", res.NumFailed)
	}
	if res.ErrorRate != float64(res.NumFailed)/20 {
		t.Fatal("rate inconsistent")
	}
}

func TestRunArrayDeterministicAcrossWorkerCounts(t *testing.T) {
	tech := device.Node("45nm")
	base := ArrayConfig{
		Tech:    tech,
		Cell:    sram.CellConfig{Tech: tech},
		Pattern: sram.Fig8Pattern(tech.Vdd),
		Cells:   16,
		Scale:   1,
		Seed:    11,
		WithRTN: true,
	}
	run := func(_ context.Context, cell sram.CellConfig, p sram.Pattern, scale float64, seed uint64) (int, int, int, error) {
		// Deterministic function of the sampled inputs.
		if cell.VtShift["M5"] > 0 {
			return 1, 0, int(seed % 7), nil
		}
		return 0, 0, int(seed % 7), nil
	}
	a := base
	a.Workers = 1
	b := base
	b.Workers = 8
	ra, err := RunArrayCtx(context.Background(), a, run, ArrayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := RunArrayCtx(context.Background(), b, run, ArrayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ra.Outcomes {
		if ra.Outcomes[i].Failed != rb.Outcomes[i].Failed ||
			ra.Outcomes[i].TrapCount != rb.Outcomes[i].TrapCount {
			t.Fatal("results depend on worker count")
		}
	}
}

func TestRunArrayWorkersExceedCells(t *testing.T) {
	tech := device.Node("45nm")
	cfg := ArrayConfig{
		Tech: tech, Cell: sram.CellConfig{Tech: tech},
		Pattern: sram.Fig8Pattern(tech.Vdd),
		Cells:   2, Seed: 3, WithRTN: true,
		Workers: 16, // idle workers must park on the closed channel, not hang
	}
	res, err := RunArrayCtx(context.Background(), cfg, func(_ context.Context, _ sram.CellConfig, _ sram.Pattern, _ float64, seed uint64) (int, int, int, error) {
		return 0, 0, int(seed % 5), nil
	}, ArrayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 2 {
		t.Fatalf("outcomes = %d, want 2", len(res.Outcomes))
	}
	for i, o := range res.Outcomes {
		if o.Index != i {
			t.Fatalf("outcome %d has index %d (slot not simulated?)", i, o.Index)
		}
	}
}

func TestRunArrayDrainsQueueAfterFailure(t *testing.T) {
	tech := device.Node("45nm")
	const cells = 64
	cfg := ArrayConfig{
		Tech: tech, Cell: sram.CellConfig{Tech: tech},
		Pattern: sram.Fig8Pattern(tech.Vdd),
		Cells:   cells, Seed: 1, WithRTN: true,
		Workers: 2,
	}
	boom := errors.New("boom")
	var simulated atomic.Int64
	_, err := RunArrayCtx(context.Background(), cfg, func(context.Context, sram.CellConfig, sram.Pattern, float64, uint64) (int, int, int, error) {
		simulated.Add(1)
		return 0, 0, 0, boom
	}, ArrayOptions{})
	if !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
	// The wrapped error names the failing cell.
	if got := err.Error(); !strings.Contains(got, "montecarlo: cell ") {
		t.Fatalf("error %q does not name a cell", got)
	}
	// After the first failure the remaining queue is drained without
	// simulating. Each worker's own Record lands before its next
	// Failed() check (same goroutine), so at most Workers cells can be
	// simulated before every later job drains.
	if n := simulated.Load(); n == 0 || n > int64(cfg.Workers) {
		t.Fatalf("simulated %d of %d cells with %d workers; drain did not happen", n, cells, cfg.Workers)
	}
}

func TestRunArrayDeterministicAcrossWorkerSweep(t *testing.T) {
	tech := device.Node("45nm")
	base := ArrayConfig{
		Tech: tech, Cell: sram.CellConfig{Tech: tech},
		Pattern: sram.Fig8Pattern(tech.Vdd),
		Cells:   24, Seed: 17, WithRTN: true,
	}
	// Deterministic function of the per-cell inputs only.
	run := func(_ context.Context, cell sram.CellConfig, _ sram.Pattern, scale float64, seed uint64) (int, int, int, error) {
		errs := 0
		if cell.VtShift["M2"] > 0 && seed%3 == 0 {
			errs = 2
		}
		return errs, int(seed % 2), int(seed % 11), nil
	}
	var ref *ArrayResult
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		cfg := base
		cfg.Workers = workers
		res, err := RunArrayCtx(context.Background(), cfg, run, ArrayOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if !reflect.DeepEqual(res.Outcomes, ref.Outcomes) {
			t.Fatalf("outcomes differ between Workers=1 and Workers=%d", workers)
		}
		if res.NumFailed != ref.NumFailed || res.ErrorRate != ref.ErrorRate || res.MeanTraps != ref.MeanTraps {
			t.Fatalf("aggregates differ between Workers=1 and Workers=%d", workers)
		}
	}
}

func TestRunArrayErrorsPropagate(t *testing.T) {
	tech := device.Node("45nm")
	cfg := ArrayConfig{
		Tech: tech, Cell: sram.CellConfig{Tech: tech},
		Pattern: sram.Fig8Pattern(tech.Vdd),
		Cells:   3, Seed: 1, WithRTN: true,
	}
	boom := errors.New("boom")
	_, err := RunArrayCtx(context.Background(), cfg, func(context.Context, sram.CellConfig, sram.Pattern, float64, uint64) (int, int, int, error) {
		return 0, 0, 0, boom
	}, ArrayOptions{})
	if !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
}

func TestRunArrayValidation(t *testing.T) {
	if _, err := RunArrayCtx(context.Background(), ArrayConfig{Cells: 0}, nil, ArrayOptions{}); err == nil {
		t.Fatal("zero cells accepted")
	}
	if _, err := RunArrayCtx(context.Background(), ArrayConfig{Cells: 5}, nil, ArrayOptions{}); err == nil {
		t.Fatal("nil runner accepted")
	}
}

func TestScaleZeroWhenRTNDisabled(t *testing.T) {
	tech := device.Node("45nm")
	cfg := ArrayConfig{
		Tech: tech, Cell: sram.CellConfig{Tech: tech},
		Pattern: sram.Fig8Pattern(tech.Vdd),
		Cells:   2, Seed: 1, Scale: 30, WithRTN: false,
	}
	// The two cells run on concurrent workers, so the write is locked.
	var mu sync.Mutex
	sawScale := -1.0
	_, err := RunArrayCtx(context.Background(), cfg, func(_ context.Context, _ sram.CellConfig, _ sram.Pattern, scale float64, _ uint64) (int, int, int, error) {
		mu.Lock()
		sawScale = scale
		mu.Unlock()
		return 0, 0, 0, nil
	}, ArrayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sawScale != 0 {
		t.Fatalf("runner saw scale %g, want 0 when RTN disabled", sawScale)
	}
}
