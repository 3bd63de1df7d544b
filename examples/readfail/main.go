// Readfail demonstrates RTN-induced SRAM read failures (the paper's
// footnote 2): on a read-stressed cell, accelerated RTN on the
// pull-down path first erodes the sense margin (read slowdown) and
// eventually flips the stored value during the access (destructive
// read), while physical-amplitude RTN leaves every read intact.
package main

import (
	"fmt"
	"log"

	"samurai/internal/device"
	"samurai/internal/markov"
	"samurai/internal/rng"
	"samurai/internal/rtn"
	"samurai/internal/sram"
	"samurai/internal/waveform"
)

func main() {
	log.SetFlags(0)

	tech := device.Node("32nm")
	vdd := 0.6
	cfg := sram.ReadMarginalCellConfig(tech, vdd)
	fmt.Printf("read-stressed 32nm cell at %.2f V (pass %gnm / pull-down %gnm)\n\n",
		vdd, cfg.Cell.WPassGate*1e9, cfg.Cell.WPullDown*1e9)

	// Clean reference read of a stored 0.
	clean, err := sram.EvaluateRead(cfg, 0, nil, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clean read:   value=%d  ΔV=%+.3f V  disturbed=%v\n",
		clean.Value, clean.DeltaV, clean.Disturbed)

	// SAMURAI traces for each transistor from the clean read's biases.
	ctx := tech.TrapContext(vdd)
	profiler := tech.TrapProfiler()
	params, err := sram.DeviceParams(cfg.Cell)
	if err != nil {
		log.Fatal(err)
	}
	root := rng.New(2)
	total := cfg.Timing.Total

	for _, scale := range []float64{1, 100, 300} {
		traces := map[string]*waveform.PWL{}
		for i, name := range sram.Transistors {
			dev := params[name]
			profile := profiler.Sample(dev.W, dev.L, ctx, root.Split(uint64(10+i)))
			vgs, id, err := clean.Trans.DeviceBias(name)
			if err != nil {
				log.Fatal(err)
			}
			paths, err := markov.UniformiseProfileBatch(profile, vgs, 0, total, root.Split(uint64(20+i)))
			if err != nil {
				log.Fatal(err)
			}
			trace, err := rtn.Compose(paths, dev, vgs, id, 0, total, 1024)
			if err != nil {
				log.Fatal(err)
			}
			w, err := trace.Scale(scale).PWL()
			if err != nil {
				log.Fatal(err)
			}
			traces[name] = w
		}
		res, err := sram.EvaluateRead(cfg, 0, traces, 0)
		if err != nil {
			log.Fatal(err)
		}
		verdict := "ok"
		switch {
		case res.Disturbed:
			verdict = "DESTRUCTIVE READ (stored bit flipped)"
		case !res.Correct:
			verdict = "WRONG VALUE SENSED"
		}
		fmt.Printf("RTN ×%-4.0f:    value=%d  ΔV=%+.3f V  Qend=%.3f V  %s\n",
			scale, res.Value, res.DeltaV, res.QEnd, verdict)
	}
}
