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

	var bias markov.BiasFunc
	var vgsWave *waveform.PWL
	switch {
	case *sqLo >= 0 && *sqHi >= 0:
		lo, hi, p := *sqLo, *sqHi, *period
		bias = func(t float64) float64 {
			if int(t/(p/2))%2 == 0 {
				return hi
			}
			return lo
		}
		// Dense PWL mirror of the square wave for Eq (3).
		n := int(*duration / (p / 2))
		ts := make([]float64, 0, 2*n+2)
		vs := make([]float64, 0, 2*n+2)
		for k := 0; k*int(1) <= n; k++ {
			t := float64(k) * p / 2
			if t > *duration {
				break
			}
			ts = append(ts, t)
			vs = append(vs, bias(t+p/4))
		}
		var err error
		vgsWave, err = waveform.New(ts, vs)
		if err != nil {
			log.Fatal(err)
		}
	default:
		v := *vgs
		if v < 0 {
			v = tech.Vdd
		}
		bias = markov.ConstantBias(v)
		vgsWave = waveform.Constant(v)
	}

	sctx, span := trace.Start(context.Background(), "rtngen")
	_, uni := trace.Start(sctx, "uniformise")
	paths, err := markov.UniformiseProfile(profile, bias, 0, *duration, root.Split(2))
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
