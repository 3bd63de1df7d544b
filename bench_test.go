package samurai_test

// The benchmark harness regenerates every table and figure of the
// paper (see DESIGN.md §4 for the experiment index). Each benchmark
// prints the regenerated rows once — `go test -bench=. -benchmem` thus
// reproduces the paper's evaluation section in textual form — and
// reports headline quantities as custom metrics.

import (
	"fmt"
	"os"
	"sync"
	"testing"

	samurai "samurai"
	"samurai/internal/experiments"
)

var printOnce sync.Map

func printTable(key string, render func()) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Fprintf(os.Stdout, "\n===== %s =====\n", key)
		render()
	}
}

// BenchmarkFig2MarginStack regenerates the V_dd margin stack (EXP-F2).
func BenchmarkFig2MarginStack(b *testing.B) {
	b.ReportAllocs()
	var growth float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig2(experiments.Fig2Config{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		growth = res.RTNGrowth()
		printTable("Fig 2", func() { res.WriteText(os.Stdout) })
	}
	b.ReportMetric(growth, "rtn-growth-x")
}

// BenchmarkFig3SpectralDensity regenerates the 25-device spectral
// comparison (EXP-F3).
func BenchmarkFig3SpectralDensity(b *testing.B) {
	b.ReportAllocs()
	var contrast float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3(experiments.Fig3Config{Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		contrast = res.Contrast()
		printTable("Fig 3", func() { res.WriteText(os.Stdout) })
	}
	b.ReportMetric(contrast, "residual-contrast")
}

// BenchmarkFig5GlitchScenarios regenerates the three glitch timings
// (EXP-F5).
func BenchmarkFig5GlitchScenarios(b *testing.B) {
	b.ReportAllocs()
	ok := 0.0
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(experiments.Fig5Config{})
		if err != nil {
			b.Fatal(err)
		}
		cleanOK, midSlow, edgeError := res.Classify()
		if cleanOK && midSlow && edgeError {
			ok = 1
		}
		printTable("Fig 5", func() { res.WriteText(os.Stdout) })
	}
	b.ReportMetric(ok, "reproduced")
}

// BenchmarkFig7Autocorrelation regenerates the time-domain validation
// panels (a)–(c) of Fig 7 (EXP-F7a–c).
func BenchmarkFig7Autocorrelation(b *testing.B) {
	b.ReportAllocs()
	for _, sweep := range []experiments.Fig7Sweep{
		experiments.SweepVgs, experiments.SweepEtr, experiments.SweepYtr,
	} {
		b.Run(string(sweep), func(b *testing.B) {
			b.ReportAllocs()
			var worst float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.Fig7(sweep, experiments.Fig7Config{Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				worst, _ = res.MaxErr()
				printTable("Fig 7 R(tau) sweep "+string(sweep), func() { res.WriteText(os.Stdout) })
			}
			b.ReportMetric(worst, "max-rel-err")
		})
	}
}

// BenchmarkFig7SpectralDensity regenerates the frequency-domain panels
// (d)–(f) of Fig 7 (EXP-F7d–f). The same sweeps are run; the metric
// reported here is the spectral error.
func BenchmarkFig7SpectralDensity(b *testing.B) {
	b.ReportAllocs()
	for _, sweep := range []experiments.Fig7Sweep{
		experiments.SweepVgs, experiments.SweepEtr, experiments.SweepYtr,
	} {
		b.Run(string(sweep), func(b *testing.B) {
			b.ReportAllocs()
			var worst float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.Fig7(sweep, experiments.Fig7Config{Seed: 2})
				if err != nil {
					b.Fatal(err)
				}
				_, worst = res.MaxErr()
				printTable("Fig 7 S(f) sweep "+string(sweep), func() { res.WriteText(os.Stdout) })
			}
			b.ReportMetric(worst, "max-rel-err")
		})
	}
}

// BenchmarkFig8Methodology regenerates the full SAMURAI+SPICE
// demonstration (EXP-F8).
func BenchmarkFig8Methodology(b *testing.B) {
	b.ReportAllocs()
	var errors float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(experiments.Fig8Config{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		errors = float64(len(res.ErrorCycles))
		printTable("Fig 8", func() { res.WriteText(os.Stdout) })
	}
	b.ReportMetric(errors, "write-errors-x30")
}

// BenchmarkUniformisationVsDiscretised regenerates the
// accuracy/efficiency comparison (EXP-T1).
func BenchmarkUniformisationVsDiscretised(b *testing.B) {
	b.ReportAllocs()
	var speedup float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.T1(experiments.T1Config{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1]
		if last.UniformNs > 0 {
			speedup = last.BaselineNs / last.UniformNs
		}
		printTable("EXP-T1", func() { res.WriteText(os.Stdout) })
	}
	b.ReportMetric(speedup, "speedup-at-equal-accuracy")
}

// BenchmarkStationaryPessimism regenerates the stationary-analysis
// pessimism table (EXP-T2).
func BenchmarkStationaryPessimism(b *testing.B) {
	b.ReportAllocs()
	var worst float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.T2(experiments.T2Config{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		worst = res.MaxPessimism()
		printTable("EXP-T2", func() { res.WriteText(os.Stdout) })
	}
	b.ReportMetric(worst, "pessimism-dB")
}

// BenchmarkCoupledSimulation regenerates the coupled-vs-two-pass
// comparison (EXP-X1, paper future-work #1).
func BenchmarkCoupledSimulation(b *testing.B) {
	b.ReportAllocs()
	var dq float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.X1(experiments.X1Config{Seeds: 2})
		if err != nil {
			b.Fatal(err)
		}
		dq = res.MaxQDiff
		printTable("EXP-X1", func() { res.WriteText(os.Stdout) })
	}
	b.ReportMetric(dq, "max-dQ-V")
}

// BenchmarkArrayMonteCarlo regenerates the SRAM-array statistics
// (EXP-X2, paper future-work #3).
func BenchmarkArrayMonteCarlo(b *testing.B) {
	b.ReportAllocs()
	var rate float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.X2(experiments.X2Config{Cells: 48, Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		rate = res.WithRTNRate
		printTable("EXP-X2", func() { res.WriteText(os.Stdout) })
	}
	b.ReportMetric(rate, "rtn-error-rate")
}

// BenchmarkCoreUniformise measures the raw SAMURAI kernel: one active
// trap simulated for 10⁴ expected candidate events.
func BenchmarkCoreUniformise(b *testing.B) {
	b.ReportAllocs()
	benchCoreUniformise(b)
}

// BenchmarkBatchUniformise measures the batched SoA kernel at several
// lane counts on the BenchmarkCoreUniformise workload. The ns/trap-path
// metric at N=64 against BenchmarkCoreUniformise's ns/op is the batch
// kernel's ≥5x acceptance ratio (recorded in bench_trajectory.json).
func BenchmarkBatchUniformise(b *testing.B) {
	for _, n := range []int{1, 8, 64, 512} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			benchBatchUniformise(b, n)
		})
	}
}

// BenchmarkArrayTransient measures hold-state transient stepping on
// shared-bitline SRAM arrays through the sparse MNA path. The reported
// ns/step should scale with the nnz metric (structural nonzeros of the
// frozen pattern), not with unknowns² — that near-linear trend across
// 8×8 → 16×16 → 64×64 is the PR 8 sparse-path acceptance criterion.
func BenchmarkArrayTransient(b *testing.B) {
	for _, n := range []int{8, 16, 64} {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			benchArrayTransient(b, n)
		})
	}
}

// BenchmarkCellTransient measures one clean 9-write SRAM transient —
// the circuit-simulator cost unit of the methodology.
func BenchmarkCellTransient(b *testing.B) {
	b.ReportAllocs()
	benchCellTransient(b)
}

// BenchmarkFullMethodology measures one complete Run (both SPICE
// passes plus trace generation) at default settings.
func BenchmarkFullMethodology(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := samurai.Run(samurai.Config{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9ReadFailures regenerates the read-failure analysis of
// the paper's footnote 2 (EXP-F9).
func BenchmarkFig9ReadFailures(b *testing.B) {
	b.ReportAllocs()
	var disturbed float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.F9(experiments.F9Config{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		disturbed = float64(res.DisturbedScaled)
		printTable("EXP-F9", func() { res.WriteText(os.Stdout) })
	}
	b.ReportMetric(disturbed, "destructive-reads")
}

// BenchmarkNBTICorrelation regenerates the RTN–NBTI correlation study
// (EXP-X3, §I-B of the paper).
func BenchmarkNBTICorrelation(b *testing.B) {
	b.ReportAllocs()
	var r float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.X3(experiments.X3Config{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		r = res.Pearson
		printTable("EXP-X3", func() { res.WriteText(os.Stdout) })
	}
	b.ReportMetric(r, "pearson")
}

// BenchmarkRingOscillator regenerates the ring-oscillator RTN study
// (EXP-X4, paper future-work #4).
func BenchmarkRingOscillator(b *testing.B) {
	b.ReportAllocs()
	var jitter float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.X4(experiments.X4Config{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		jitter = res.RTNJitterPs
		printTable("EXP-X4", func() { res.WriteText(os.Stdout) })
	}
	b.ReportMetric(jitter, "rtn-jitter-ps")
}

// BenchmarkAblations regenerates the three design-choice ablation
// tables from DESIGN.md.
func BenchmarkAblations(b *testing.B) {
	b.ReportAllocs()
	ablations := []struct {
		name string
		run  func(uint64) (*experiments.AblationResult, error)
	}{
		{"IntegrationMethod", experiments.AblateIntegrationMethod},
		{"TraceResolution", experiments.AblateTraceResolution},
		{"WriteMargin", experiments.AblateWriteMargin},
	}
	for _, a := range ablations {
		b.Run(a.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := a.run(1)
				if err != nil {
					b.Fatal(err)
				}
				printTable("Ablation "+a.name, func() { res.WriteText(os.Stdout) })
			}
		})
	}
}

// BenchmarkRetentionEffects regenerates the DRAM-VRT and SRAM-DRV
// retention analyses (EXP-X5, paper future-work #4).
func BenchmarkRetentionEffects(b *testing.B) {
	b.ReportAllocs()
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.X5(experiments.X5Config{Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		ratio = res.LevelRatio
		printTable("EXP-X5", func() { res.WriteText(os.Stdout) })
	}
	b.ReportMetric(ratio, "vrt-level-ratio")
}

// BenchmarkVminShift regenerates the RTN-induced V_min measurement
// (EXP-T3, the simulation counterpart of the paper's ref [14]).
func BenchmarkVminShift(b *testing.B) {
	b.ReportAllocs()
	var dv float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.T3(experiments.T3Config{})
		if err != nil {
			b.Fatal(err)
		}
		dv = res.DeltaVminMV
		printTable("EXP-T3", func() { res.WriteText(os.Stdout) })
	}
	b.ReportMetric(dv, "delta-vmin-mV")
}

// BenchmarkPLLCycleSlips regenerates the PLL cycle-slip study (EXP-X6,
// the paper's closing conjecture in future-work #4).
func BenchmarkPLLCycleSlips(b *testing.B) {
	b.ReportAllocs()
	var slips float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.X6(experiments.X6Config{Seed: 2})
		if err != nil {
			b.Fatal(err)
		}
		slips = float64(res.Rows[len(res.Rows)-1].Slips)
		printTable("EXP-X6", func() { res.WriteText(os.Stdout) })
	}
	b.ReportMetric(slips, "slips-at-3x-lock")
}

// BenchmarkCellRedesign regenerates the write-assist and 8T re-design
// study (EXP-X7 — the "cell must be re-designed" branch of the paper's
// methodology flowchart).
func BenchmarkCellRedesign(b *testing.B) {
	b.ReportAllocs()
	var immune float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.X7(experiments.X7Config{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if res.Disturbed8T == 0 && res.AssistErrors[len(res.AssistErrors)-1] == 0 {
			immune = 1
		}
		printTable("EXP-X7", func() { res.WriteText(os.Stdout) })
	}
	b.ReportMetric(immune, "redesigns-effective")
}
