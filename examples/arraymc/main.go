// Arraymc runs the SRAM-array statistical analysis (paper future-work
// #3): many cell instances with local Vt variation, each carrying its
// own sampled trap population, simulated in parallel — quantifying the
// *incremental* bit-error contribution of RTN on top of variation.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sync"

	samurai "samurai"
	"samurai/internal/device"
	"samurai/internal/montecarlo"
	"samurai/internal/obs"
	"samurai/internal/sram"
)

// progressLine renders montecarlo.progress events as a live one-line
// cells/sec readout on stderr (rewritten in place with \r). Emit is
// mutex-guarded: montecarlo workers emit concurrently.
type progressLine struct {
	mu sync.Mutex
}

func (p *progressLine) Emit(e obs.Event) {
	if e.Name != "montecarlo.progress" && e.Name != "montecarlo.done" {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	f := map[string]any{}
	for _, fld := range e.Fields {
		f[fld.Key] = fld.Value
	}
	switch e.Name {
	case "montecarlo.progress":
		fmt.Fprintf(os.Stderr, "\r%v/%v cells  %.1f cells/s ", f["done"], f["cells"], f["cells_per_sec"])
	case "montecarlo.done":
		fmt.Fprintf(os.Stderr, "\r%v cells in %.1f s  (%.1f cells/s)\n", f["cells"], f["seconds"], f["cells_per_sec"])
	}
}

func main() {
	log.SetFlags(0)

	cells := flag.Int("cells", 32, "number of array cells to simulate")
	scale := flag.Float64("scale", 10, "RTN acceleration factor")
	quiet := flag.Bool("quiet", false, "disable the live cells/sec readout")
	flag.Parse()
	if !*quiet {
		obs.SetSink(&progressLine{})
	}

	tech := device.Node("32nm")
	vdd := 2.0 / 3.0 * tech.Vdd
	cellCfg, err := sram.MarginalCellConfig(sram.CellConfig{Tech: tech, Vdd: vdd})
	if err != nil {
		log.Fatal(err)
	}

	base := montecarlo.ArrayConfig{
		Tech:    tech,
		Cell:    cellCfg,
		Pattern: sram.Fig8Pattern(vdd),
		Cells:   *cells,
		Scale:   *scale,
		Seed:    7,
	}

	fmt.Printf("%d-cell 32nm array at Vdd = %.2f V\n\n", *cells, vdd)

	noRTN := base
	noRTN.WithRTN = false
	varOnly, err := montecarlo.RunArrayCtx(context.Background(), noRTN, samurai.ArrayRunnerCtx(), montecarlo.ArrayOptions{})
	if err != nil {
		log.Fatal(err)
	}
	withRTN := base
	withRTN.WithRTN = true
	rtnRes, err := montecarlo.RunArrayCtx(context.Background(), withRTN, samurai.ArrayRunnerCtx(), montecarlo.ArrayOptions{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-22s %8s %8s\n", "population", "failed", "rate")
	fmt.Printf("%-22s %8d %8.3f\n", "Vt variation only", varOnly.NumFailed, varOnly.ErrorRate)
	fmt.Printf("%-22s %8d %8.3f   (RTN ×%.0f)\n", "variation + RTN", rtnRes.NumFailed, rtnRes.ErrorRate, *scale)
	fmt.Printf("\nmean trap count per cell: %.1f\n", rtnRes.MeanTraps)

	fmt.Println("\nworst cells:")
	shown := 0
	for _, o := range rtnRes.Outcomes {
		if o.Failed && shown < 5 {
			fmt.Printf("  cell %3d: %d write errors, %d traps, ΔVt(M5) = %+6.1f mV\n",
				o.Index, o.Errors, o.TrapCount, o.VtShift["M5"]*1e3)
			shown++
		}
	}
	if shown == 0 {
		fmt.Println("  (none failed — try a larger -scale)")
	}
}
