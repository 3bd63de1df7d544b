// Command samuraivv runs the statistical verification-and-validation
// conformance matrix (see internal/vv) against the production trap
// kernel (markov.BatchState) and emits a JSON report: per-scenario
// gates with statistic, p-value, threshold and pass/fail. The exit code
// is 0 when every gate passes, 1 when any gate rejects the simulator, 2
// on usage or runtime errors.
//
// For a fixed -seed the report is bit-identical across runs and
// machines: all sampling derives from split rng.Streams and every
// p-value is a closed-form series. CI diffs the artifact across
// commits to catch distribution-level regressions the golden seeded
// tests cannot see.
//
// Usage:
//
//	samuraivv [-seed N] [-alpha A] [-e2e=false] [-e2e-runs N]
//	          [-o report.json] [-metrics]
//
// The rare-event unbiasedness battery has its own command,
// samurairare.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"samurai/internal/obs"
	"samurai/internal/vv"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("samuraivv", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 1, "master seed; the report is a pure function of it")
	alpha := fs.Float64("alpha", vv.DefaultAlpha, "report-wide false-positive budget")
	e2e := fs.Bool("e2e", true, "also run the end-to-end samurai.Run suite")
	e2eRuns := fs.Int("e2e-runs", 0, "end-to-end methodology runs (0 = default)")
	out := fs.String("o", "", "write the report to this file instead of stdout")
	metrics := fs.Bool("metrics", false, "append a samurai_vv_* metrics snapshot to stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	rep, err := vv.RunMatrix(vv.Options{
		Seed:    *seed,
		Alpha:   *alpha,
		E2E:     *e2e,
		E2ERuns: *e2eRuns,
	})
	if err != nil {
		fmt.Fprintln(stderr, "samuraivv:", err)
		return 2
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "samuraivv:", err)
		return 2
	}
	// Provenance is spliced in after the deterministic body is
	// marshalled: the report's own bytes stay a pure function of the
	// seed, with the machine-dependent manifest isolated in the leading
	// run_info member.
	enc = obs.SpliceJSON(enc, obs.Info(*seed, ""))
	enc = append(enc, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			fmt.Fprintln(stderr, "samuraivv:", err)
			return 2
		}
	} else {
		if _, err := stdout.Write(enc); err != nil {
			fmt.Fprintln(stderr, "samuraivv:", err)
			return 2
		}
	}

	if *metrics {
		// The metrics snapshot goes to stderr, not into the report:
		// obs counters are process-global and would break the report's
		// bit-identity guarantee.
		if err := obs.Default().WritePrometheus(stderr); err != nil {
			fmt.Fprintln(stderr, "samuraivv:", err)
			return 2
		}
	}

	if !rep.Pass {
		failed := 0
		for _, sc := range rep.Scenarios {
			for _, g := range sc.Gates {
				if !g.Pass {
					failed++
					fmt.Fprintf(stderr, "samuraivv: FAIL %s/%s (%s): p=%.3g < alpha=%.3g\n",
						sc.Name, g.Name, g.Statistic, g.PValue, g.Alpha)
				}
			}
		}
		fmt.Fprintf(stderr, "samuraivv: %d gate(s) rejected the simulator\n", failed)
		return 1
	}
	return 0
}
