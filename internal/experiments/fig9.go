package experiments

import (
	"fmt"
	"io"

	"samurai/internal/device"
	"samurai/internal/markov"
	"samurai/internal/rng"
	"samurai/internal/rtn"
	"samurai/internal/sram"
	"samurai/internal/waveform"
)

// F9Result is the read-failure analysis of the paper's footnote 2
// ("RTN-induced SRAM read failures have also been reported. SAMURAI is
// capable of predicting these too"): the full methodology applied to
// read cycles on a read-stressed cell.
type F9Result struct {
	Tech  string
	Vdd   float64
	Reads int
	Scale float64
	// At ×1 and ×Scale: destructive reads (stored bit flipped) and
	// incorrect sensing.
	DisturbedUnscaled, DisturbedScaled   int
	WrongValueUnscaled, WrongValueScaled int
	// CleanDeltaV and ScaledDeltaVMin track the sense margin erosion.
	CleanDeltaV, ScaledDeltaVMin float64
}

// F9Config controls EXP-F9.
type F9Config struct {
	Tech    string
	VddFrac float64
	Scale   float64
	Reads   int
	Seed    uint64
}

func (c F9Config) defaults() F9Config {
	if c.Tech == "" {
		c.Tech = "32nm"
	}
	if c.VddFrac == 0 {
		c.VddFrac = 2.0 / 3.0
	}
	if c.Scale == 0 {
		c.Scale = 300
	}
	if c.Reads == 0 {
		c.Reads = 12
	}
	return c
}

// F9 runs the two-pass methodology on read cycles: a clean read
// extracts per-transistor biases, SAMURAI generates RTN traces on
// sampled trap populations, and the RTN-injected reads are classified
// for destructive flips and sense errors. Each read uses a fresh trap
// population (different seed), modelling different cells of an array.
func F9(cfg F9Config) (*F9Result, error) {
	cfg = cfg.defaults()
	tech := device.Node(cfg.Tech)
	vdd := cfg.VddFrac * tech.Vdd
	readCfg := sram.ReadMarginalCellConfig(tech, vdd)

	const storedBit = 0 // reading a 0 stresses the Q-side pull-down
	clean, err := sram.EvaluateRead(readCfg, storedBit, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("experiments: clean read: %w", err)
	}
	if !clean.Correct || clean.Disturbed {
		return nil, fmt.Errorf("experiments: clean read failed: %+v", clean)
	}

	res := &F9Result{
		Tech: cfg.Tech, Vdd: vdd, Reads: cfg.Reads, Scale: cfg.Scale,
		CleanDeltaV:     clean.DeltaV,
		ScaledDeltaVMin: clean.DeltaV,
	}
	ctx := tech.TrapContext(vdd)
	profiler := tech.TrapProfiler()
	params, err := sram.DeviceParams(readCfg.Cell)
	if err != nil {
		return nil, err
	}
	t1 := readCfg.Timing.Total
	root := rng.New(cfg.Seed)

	for k := 0; k < cfg.Reads; k++ {
		r := root.Split(uint64(k))
		traces := map[string]*waveform.PWL{}
		tracesScaled := map[string]*waveform.PWL{}
		for i, name := range sram.Transistors {
			dev := params[name]
			profile := profiler.Sample(dev.W, dev.L, ctx, r.Split(uint64(10+i)))
			vgs, id, err := clean.Trans.DeviceBias(name)
			if err != nil {
				return nil, err
			}
			paths, err := markov.UniformiseProfileBatch(profile, vgs, 0, t1, r.Split(uint64(20+i)))
			if err != nil {
				return nil, err
			}
			trace, err := rtn.Compose(paths, dev, vgs, id, 0, t1, 1024)
			if err != nil {
				return nil, err
			}
			w, err := trace.PWL()
			if err != nil {
				return nil, err
			}
			traces[name] = w
			scaled, err := trace.Scale(cfg.Scale).PWL()
			if err != nil {
				return nil, err
			}
			tracesScaled[name] = scaled
		}
		un, err := sram.EvaluateRead(readCfg, storedBit, traces, 0)
		if err != nil {
			return nil, err
		}
		sc, err := sram.EvaluateRead(readCfg, storedBit, tracesScaled, 0)
		if err != nil {
			return nil, err
		}
		if un.Disturbed {
			res.DisturbedUnscaled++
		}
		if !un.Correct {
			res.WrongValueUnscaled++
		}
		if sc.Disturbed {
			res.DisturbedScaled++
		}
		if !sc.Correct {
			res.WrongValueScaled++
		}
		// Track the worst sense margin among still-correct scaled
		// reads (read slowdown).
		if sc.Correct && absF(sc.DeltaV) < absF(res.ScaledDeltaVMin) {
			res.ScaledDeltaVMin = sc.DeltaV
		}
	}
	return res, nil
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// WriteText renders the EXP-F9 table.
func (r *F9Result) WriteText(w io.Writer) {
	fmt.Fprintf(w, "EXP-F9 — RTN-induced read failures (%s read-stressed cell, Vdd=%.2f V, %d reads of a stored 0)\n",
		r.Tech, r.Vdd, r.Reads)
	fmt.Fprintf(w, "%12s %12s %12s\n", "RTN scale", "disturbed", "wrong value")
	fmt.Fprintf(w, "%12s %12d %12d\n", "×1", r.DisturbedUnscaled, r.WrongValueUnscaled)
	fmt.Fprintf(w, "%12s %12d %12d\n", fmt.Sprintf("×%.0f", r.Scale), r.DisturbedScaled, r.WrongValueScaled)
	fmt.Fprintf(w, "clean sense margin %.3f V; worst surviving margin at ×%.0f: %.3f V\n",
		r.CleanDeltaV, r.Scale, r.ScaledDeltaVMin)
}
