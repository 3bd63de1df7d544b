// Command spicesim runs a SPICE-style netlist deck through the
// built-in circuit simulator: DC operating point when no .tran card is
// present, transient analysis otherwise, with results written as CSV
// (one column per node).
//
// Example deck:
//
//	.tech 90nm
//	VDD vdd 0 DC 1.2
//	VIN in 0 PULSE(0 1.2 1n 50p 50p 2n 4n)
//	MN out in 0 NMOS W=180n L=90n
//	MP out in vdd PMOS W=360n L=90n
//	C1 out 0 2f
//	.tran 10p 10n
//
// A deck may have at most circuit.MaxUnknowns (1000) MNA unknowns: one
// per non-ground node plus one per voltage source. The solver is dense,
// so a larger deck is refused with an error naming both counts.
//
// Usage: spicesim [-o out.csv] deck.sp   (or pipe the deck on stdin)
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"samurai/internal/circuit"
	"samurai/internal/obs"
	"samurai/internal/obs/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("spicesim: ")

	outPath := flag.String("o", "", "output CSV path (default stdout)")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus /metrics and /debug/pprof on this address (e.g. :9090)")
	progress := flag.Bool("progress", false, "stream transient progress events to stderr")
	flag.Parse()
	if *progress {
		obs.SetSink(obs.NewTextSink(os.Stderr))
	}
	if *metricsAddr != "" {
		srv, err := obs.ServeMetrics(*metricsAddr)
		if err != nil {
			log.Fatalf("metrics server: %v", err)
		}
		//lint:ignore bareerr spicesim is done by the time this close runs; a failure here is unobservable
		defer srv.Close()
		log.Printf("metrics at http://%s/metrics", srv.Addr())
	}

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		//lint:ignore bareerr read-only input file; a close failure has nothing to recover
		defer f.Close()
		in = f
	}
	deck, err := circuit.ParseDeck(in)
	if err != nil {
		log.Fatal(err)
	}

	var out io.Writer = os.Stdout
	closeOut := func() error { return nil }
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			log.Fatal(err)
		}
		out = f
		closeOut = f.Close
	}
	w := bufio.NewWriter(out)
	if err := emit(w, deck); err != nil {
		log.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	if err := closeOut(); err != nil {
		log.Fatal(err)
	}
}

// emit writes the deck's analysis results as CSV: the DC operating
// point when no .tran card is present, the transient sweep otherwise.
func emit(w *bufio.Writer, deck *circuit.Deck) error {
	if !deck.HasTran {
		op, err := deck.Circuit.OperatingPoint(deck.Tran.InitialV, circuit.Options{})
		if err != nil {
			return err
		}
		nodes := sortedKeys(op)
		fmt.Fprintln(w, "node,voltage_V")
		for _, n := range nodes {
			fmt.Fprintf(w, "%s,%.9g\n", n, op[n])
		}
		return nil
	}

	res, err := runTran(deck)
	if err != nil {
		return err
	}
	nodes := sortedKeys(res.V)
	fmt.Fprint(w, "time_s")
	for _, n := range nodes {
		fmt.Fprintf(w, ",v(%s)", n)
	}
	fmt.Fprintln(w)
	for i, t := range res.Times {
		fmt.Fprintf(w, "%.9e", t)
		for _, n := range nodes {
			fmt.Fprintf(w, ",%.6e", res.V[n][i])
		}
		fmt.Fprintln(w)
	}
	log.Printf("simulated %d steps over %g s (%d nodes)", len(res.Times)-1, deck.Tran.T1, len(nodes))
	return nil
}

// runTran drives the deck's transient analysis step by step (exactly
// what Deck.RunTran does internally) so a progress event can be emitted
// at each 10% mark of simulated time.
func runTran(deck *circuit.Deck) (*circuit.TransientResult, error) {
	_, span := trace.Start(context.Background(), "spicesim.tran")
	defer span.End()
	r, err := deck.Circuit.NewRunner(deck.Tran)
	if err != nil {
		return nil, err
	}
	t0, t1 := deck.Tran.T0, deck.Tran.T1
	next := 0.1
	for !r.Done() {
		if err := r.Step(deck.Tran.Dt); err != nil {
			return nil, err
		}
		if frac := (r.Time() - t0) / (t1 - t0); frac >= next {
			obs.Emit("spicesim.progress",
				obs.F("t", r.Time()), obs.F("frac", frac))
			for next <= frac {
				next += 0.1
			}
		}
	}
	return r.Result(), nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
