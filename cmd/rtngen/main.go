// Command rtngen generates a non-stationary RTN current trace for a
// single MOSFET using Algorithm 1 (Markov uniformisation) and Eq (3),
// and writes it as CSV (time_s, i_rtn_A, n_filled).
//
// The gate bias can be constant (-vgs) or a square wave (-square-lo,
// -square-hi, -period) to exercise genuinely non-stationary statistics.
//
// Example:
//
//	rtngen -tech 32nm -duration 1e-4 -square-lo 0 -square-hi 0.9 -period 1e-6 > trace.csv
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	"samurai/internal/device"
	"samurai/internal/markov"
	"samurai/internal/obs"
	"samurai/internal/obs/trace"
	"samurai/internal/rng"
	"samurai/internal/rtn"
	"samurai/internal/waveform"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rtngen: ")

	var (
		techName = flag.String("tech", "32nm", "technology node")
		wMult    = flag.Float64("w", 2, "channel width in units of Lmin")
		vgs      = flag.Float64("vgs", -1, "constant gate bias, V (default: nominal Vdd)")
		id       = flag.Float64("id", 50e-6, "drain current for Eq (3) amplitude, A")
		duration = flag.Float64("duration", 1e-4, "trace duration, s")
		samples  = flag.Int("samples", 4096, "output samples")
		seed     = flag.Uint64("seed", 1, "random seed")
		nTraps   = flag.Int("traps", 0, "trap count (0 = sample from the statistical profiler)")
		sqLo     = flag.Float64("square-lo", -1, "square-wave low bias, V (enables square mode with -square-hi)")
		sqHi     = flag.Float64("square-hi", -1, "square-wave high bias, V")
		period   = flag.Float64("period", 1e-6, "square-wave period, s")

		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus /metrics and /debug/pprof on this address (e.g. :9090)")
		progress    = flag.Bool("progress", false, "stream structured progress events to stderr")
	)
	flag.Parse()
	if *progress {
		obs.SetSink(obs.NewTextSink(os.Stderr))
	}
	if *metricsAddr != "" {
		srv, err := obs.ServeMetrics(*metricsAddr)
		if err != nil {
			log.Fatalf("metrics server: %v", err)
		}
		//lint:ignore bareerr rtngen exits right after generation; the metrics listener close has nothing to recover
		defer srv.Close()
		log.Printf("metrics at http://%s/metrics", srv.Addr())
	}

	tech := device.Node(*techName)
	dev := device.NewMOS(tech, device.NMOS, *wMult*tech.Lmin, tech.Lmin)
	ctx := tech.TrapContext(tech.Vdd)
	root := rng.New(*seed)

	profiler := tech.TrapProfiler()
	profile := profiler.Sample(dev.W, dev.L, ctx, root.Split(1))
	if *nTraps > 0 {
		profile = profiler.SampleN(*nTraps, ctx, root.Split(1))
	}
	log.Printf("device %s W=%.0fnm L=%.0fnm, %d traps", *techName, dev.W*1e9, dev.L*1e9, len(profile.Traps))

	// One bias waveform drives both Algorithm 1 and Eq (3), so the
	// traps and the trace amplitude see the same V_gs at every instant.
	var vgsWave *waveform.PWL
	switch {
	case *sqLo >= 0 && *sqHi >= 0:
		var err error
		vgsWave, err = squareWave(*sqLo, *sqHi, *period, *duration, *duration/float64(*samples))
		if err != nil {
			log.Fatal(err)
		}
	default:
		v := *vgs
		if v < 0 {
			v = tech.Vdd
		}
		vgsWave = waveform.Constant(v)
	}

	sctx, span := trace.Start(context.Background(), "rtngen")
	_, uni := trace.Start(sctx, "uniformise")
	paths, err := markov.UniformiseProfileBatch(profile, vgsWave, 0, *duration, root.Split(2))
	if err != nil {
		log.Fatal(err)
	}
	uni.End()
	_, comp := trace.Start(sctx, "compose")
	out, err := rtn.Compose(paths, dev, vgsWave, waveform.Constant(*id), 0, *duration, *samples)
	if err != nil {
		log.Fatal(err)
	}
	comp.End()
	span.End()
	times, counts := rtn.NFilled(paths)

	transitions := 0
	for _, p := range paths {
		transitions += p.Transitions()
	}
	log.Printf("%d trap transitions; trace max %.3g A, mean %.3g A",
		transitions, out.MaxAbs(), out.Mean())

	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintln(w, "time_s,i_rtn_A,n_filled")
	for i := range out.T {
		fmt.Fprintf(w, "%.9e,%.9e,%d\n", out.T[i], out.I[i], rtn.CountAt(times, counts, out.T[i]))
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
}

// edgeRiseFrac is a square-wave edge's rise time as a fraction of the
// shorter of the half period and the sample spacing.
const edgeRiseFrac = 1e-6

// squareWave is a square-wave bias starting high, with an edge every
// half period up to the trace end. Each edge rises over edgeRiseFrac of
// the shorter of the half period and the sample spacing, so the wave
// is flat at every sample instant except one landing inside an edge.
func squareWave(lo, hi, period, duration, spacing float64) (*waveform.PWL, error) {
	if period <= 0 {
		return nil, fmt.Errorf("square-wave period %g s must be positive", period)
	}
	half := period / 2
	times, vals := []float64{0}, []float64{hi}
	for k := 1; float64(k)*half < duration; k++ {
		v := hi
		if k%2 == 1 {
			v = lo
		}
		times = append(times, float64(k)*half)
		vals = append(vals, v)
	}
	return waveform.Step(times, vals, edgeRiseFrac*math.Min(half, spacing))
}
