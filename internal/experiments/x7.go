package experiments

import (
	"fmt"
	"io"

	samurai "samurai"
	"samurai/internal/device"
	"samurai/internal/markov"
	"samurai/internal/rng"
	"samurai/internal/rtn"
	"samurai/internal/sram"
	"samurai/internal/waveform"
)

// X7Result quantifies the two classic cell re-designs against RTN —
// the "or the SRAM cell must be re-designed" branch of the paper's
// methodology flowchart:
//
//   - negative-bitline write assist vs the ×30 write errors of Fig 8;
//   - the 8T read-decoupled cell vs the destructive reads of EXP-F9.
type X7Result struct {
	Tech string
	Vdd  float64
	// AssistRows: write errors (over Seeds×9 writes) per assist level.
	AssistLevels []float64
	AssistErrors []int
	AssistSlow   []int
	// Reads compares destructive reads at the F9 stress level.
	Reads        int
	ReadScale    float64
	Disturbed6T  int
	Disturbed8T  int
	WrongValue8T int
}

// X7Config controls EXP-X7.
type X7Config struct {
	Seed  uint64
	Seeds int
	Reads int
}

func (c X7Config) defaults() X7Config {
	if c.Seeds == 0 {
		c.Seeds = 4
	}
	if c.Reads == 0 {
		c.Reads = 12
	}
	return c
}

// X7 runs both re-design studies on the 32 nm marginal cells.
func X7(cfg X7Config) (*X7Result, error) {
	cfg = cfg.defaults()
	tech := device.Node("32nm")
	vdd := 2.0 / 3.0 * tech.Vdd
	res := &X7Result{Tech: "32nm", Vdd: vdd, Reads: cfg.Reads, ReadScale: 300}

	// --- write assist ---
	cellCfg, err := sram.MarginalCellConfig(sram.CellConfig{Tech: tech, Vdd: vdd})
	if err != nil {
		return nil, err
	}
	for _, assist := range []float64{0, 0.05, 0.10} {
		pattern := sram.Fig8Pattern(vdd)
		pattern.BLUnderdrive = assist
		errs, slow := 0, 0
		for s := 0; s < cfg.Seeds; s++ {
			out, err := samurai.Run(samurai.Config{
				Tech: tech, Cell: cellCfg, Pattern: pattern,
				Seed: cfg.Seed + uint64(s), Scale: 30,
			})
			if err != nil {
				return nil, err
			}
			errs += out.WithRTN.NumError
			slow += out.WithRTN.NumSlow
		}
		res.AssistLevels = append(res.AssistLevels, assist)
		res.AssistErrors = append(res.AssistErrors, errs)
		res.AssistSlow = append(res.AssistSlow, slow)
	}

	// --- 6T vs 8T reads under SAMURAI traces (EXP-F9 stress) ---
	readCfg := sram.ReadMarginalCellConfig(tech, vdd)
	clean6, err := sram.EvaluateRead(readCfg, 0, nil, 0)
	if err != nil {
		return nil, err
	}
	cfg8 := sram.ReadCell8TConfig{Cell: readCfg.Cell}.Defaults()
	clean8, err := sram.EvaluateRead8T(cfg8, 0, nil, 0)
	if err != nil {
		return nil, err
	}
	if !clean6.Correct || !clean8.Correct {
		return nil, fmt.Errorf("experiments: clean reads failed (6T %v, 8T %v)", clean6.Correct, clean8.Correct)
	}

	// Per-circuit methodology: each cell's traces come from ITS OWN
	// clean-read bias waveforms (injecting the 6T's bitline-discharge
	// currents into the 8T's quiescent core would be a different —
	// and wrong — experiment). The same trap populations (same split
	// streams) are used for the shared core transistors, so the
	// comparison isolates the topology.
	ctx := tech.TrapContext(vdd)
	profiler := tech.TrapProfiler()
	params, err := sram.DeviceParams(readCfg.Cell)
	if err != nil {
		return nil, err
	}
	t1 := readCfg.Timing.Total
	root := rng.New(cfg.Seed ^ 0x77)
	buildTraces := func(r *rng.Stream, bias *sram.ReadResult, names []string) (map[string]*waveform.PWL, error) {
		traces := map[string]*waveform.PWL{}
		for i, name := range names {
			dev, ok := params[name]
			if !ok {
				// 8T buffer devices: size from the defaults.
				dev = device.NewMOS(tech, device.NMOS, cfg8.WReadDriver, cfg8.Cell.L)
			}
			profile := profiler.Sample(dev.W, dev.L, ctx, r.Split(uint64(10+i)))
			vgs, id, err := bias.Trans.DeviceBias(name)
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
			w, err := trace.Scale(res.ReadScale).PWL()
			if err != nil {
				return nil, err
			}
			traces[name] = w
		}
		return traces, nil
	}
	for k := 0; k < cfg.Reads; k++ {
		r := root.Split(uint64(k))
		traces6, err := buildTraces(r, clean6, sram.Transistors)
		if err != nil {
			return nil, err
		}
		six, err := sram.EvaluateRead(readCfg, 0, traces6, 0)
		if err != nil {
			return nil, err
		}
		if six.Disturbed {
			res.Disturbed6T++
		}
		traces8, err := buildTraces(r, clean8, sram.Transistors8T)
		if err != nil {
			return nil, err
		}
		eight, err := sram.EvaluateRead8T(cfg8, 0, traces8, 0)
		if err != nil {
			return nil, err
		}
		if eight.Disturbed {
			res.Disturbed8T++
		}
		if !eight.Correct {
			res.WrongValue8T++
		}
	}
	return res, nil
}

// WriteText renders the EXP-X7 tables.
func (r *X7Result) WriteText(w io.Writer) {
	fmt.Fprintf(w, "EXP-X7 — cell re-design vs RTN (%s, Vdd=%.2f V)\n", r.Tech, r.Vdd)
	fmt.Fprintln(w, "write assist (negative bitline) at RTN ×30:")
	fmt.Fprintf(w, "%14s %10s %10s\n", "assist (mV)", "errors", "slow")
	for i := range r.AssistLevels {
		fmt.Fprintf(w, "%14.0f %10d %10d\n",
			r.AssistLevels[i]*1e3, r.AssistErrors[i], r.AssistSlow[i])
	}
	fmt.Fprintf(w, "read path at RTN ×%.0f (%d reads of a stored 0):\n", r.ReadScale, r.Reads)
	fmt.Fprintf(w, "%8s %12s %12s\n", "cell", "disturbed", "wrong value")
	fmt.Fprintf(w, "%8s %12d %12s\n", "6T", r.Disturbed6T, "—")
	fmt.Fprintf(w, "%8s %12d %12d\n", "8T", r.Disturbed8T, r.WrongValue8T)
}
