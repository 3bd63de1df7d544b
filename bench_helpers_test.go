package samurai_test

import (
	"runtime"
	"testing"
	"time"

	"samurai/internal/device"
	"samurai/internal/markov"
	"samurai/internal/rng"
	"samurai/internal/sram"
	"samurai/internal/trap"
	"samurai/internal/waveform"
)

func benchCoreUniformise(b *testing.B) {
	b.ReportAllocs()
	tech := device.Node("90nm")
	ctx := tech.TrapContext(tech.Vdd)
	tr := trap.Trap{Y: 0.45 * ctx.Tox, E: 0}
	ls := ctx.RateSum(tr)
	horizon := 1e4 / ls
	r := rng.New(1)
	b.ResetTimer()
	events := 0
	for i := 0; i < b.N; i++ {
		p, err := markov.Uniformise(ctx, tr, markov.ConstantBias(tech.Vdd), 0, horizon, r.Split(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		events += p.Transitions()
	}
	b.ReportMetric(float64(events)/float64(b.N), "transitions/op")
}

// benchBatchUniformise runs the batched SoA kernel on n lanes of the
// BenchmarkCoreUniformise workload (same trap, same constant bias, same
// 10⁴-candidate horizon per lane) and reports the per-trap-path cost.
// The sequential kernel runs inside the same op with the timer stopped,
// so the reported speedup-x is a same-run, same-thermal-state ratio —
// comparing ns/op across two separately-timed benchmarks is ±15% on a
// frequency-scaling host, which would make the ≥5x gate meaningless.
func benchBatchUniformise(b *testing.B, n int) {
	b.ReportAllocs()
	tech := device.Node("90nm")
	ctx := tech.TrapContext(tech.Vdd)
	tr := trap.Trap{Y: 0.45 * ctx.Tox, E: 0}
	ls := ctx.RateSum(tr)
	horizon := 1e4 / ls
	bias := waveform.Constant(tech.Vdd)
	traps := make([]trap.Trap, n)
	for i := range traps {
		traps[i] = tr
	}
	bs := markov.NewBatchState()
	r := rng.New(1)
	b.ResetTimer()
	events := 0
	var seqNs int64
	for i := 0; i < b.N; i++ {
		paths, err := bs.Run(ctx, traps, bias, 0, horizon, r.Split(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range paths {
			events += p.Transitions()
		}
		b.StopTimer()
		// Flush collector debt between the two kernels' windows so
		// neither pays assists for the other's garbage: the comparison
		// is per-candidate compute, and both kernels allocate the same
		// per-path storage anyway.
		runtime.GC()
		parent := r.Split(uint64(i))
		start := time.Now()
		for k := 0; k < n; k++ {
			p, err := markov.Uniformise(ctx, tr, markov.ConstantBias(tech.Vdd), 0, horizon, parent.Split(uint64(k)))
			if err != nil {
				b.Fatal(err)
			}
			events -= p.Transitions()
		}
		seqNs += time.Since(start).Nanoseconds()
		runtime.GC()
		b.StartTimer()
	}
	if events != 0 {
		b.Fatal("batch and sequential kernels disagree on transition counts")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/trap-path")
	b.ReportMetric(float64(seqNs)/float64(b.Elapsed().Nanoseconds()), "speedup-x")
}

func benchCellTransient(b *testing.B) {
	b.ReportAllocs()
	tech := device.Node("90nm")
	p := sram.Fig8Pattern(tech.Vdd)
	wl, bl, blb, err := p.Waveforms()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cell, err := sram.Build(sram.CellConfig{Tech: tech}, wl, bl, blb)
		if err != nil {
			b.Fatal(err)
		}
		run, err := cell.Evaluate(p, 0)
		if err != nil {
			b.Fatal(err)
		}
		if run.NumError != 0 {
			b.Fatal("clean transient failed")
		}
	}
}
