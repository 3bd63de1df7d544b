// Command figures regenerates every table and figure of the paper's
// evaluation (the same drivers the benchmark harness uses) and prints
// them in order. EXPERIMENTS.md records a snapshot of this output.
//
// fig7 is also the paper's validation of Algorithm 1 against the
// analytical stationary R(τ) and S(f): each sweep prints a status line,
// and figures exits non-zero when a sweep's worst R(τ) error exceeds
// 0.10 or its worst S(f) error exceeds 0.25.
//
// Example:
//
//	figures -only fig8,x2
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"samurai/internal/experiments"
)

// Fig 7 validation limits on each sweep's worst relative error.
const (
	fig7AccTol = 0.10 // R(τ)
	fig7PSDTol = 0.25 // S(f)
)

type figure struct {
	key string
	run func(seed uint64) error
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")

	var (
		only   = flag.String("only", "", "comma-separated subset: fig2,fig3,fig5,fig7,fig8,f9,t1,t2,t3,x1,x2,x3,x4,x5,x6,x7,ablations (empty = all)")
		seed   = flag.Uint64("seed", 1, "random seed")
		csvDir = flag.String("csvdir", "", "also dump plot series as CSV into this directory (fig7, fig8, t3)")
	)
	flag.Parse()
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	all := []figure{
		{"fig2", func(s uint64) error {
			res, err := experiments.Fig2(experiments.Fig2Config{Seed: s})
			if err != nil {
				return err
			}
			res.WriteText(os.Stdout)
			fmt.Printf("RTN increment growth oldest→newest: %.1f×\n", res.RTNGrowth())
			return nil
		}},
		{"fig3", func(s uint64) error {
			res, err := experiments.Fig3(experiments.Fig3Config{Seed: s + 4})
			if err != nil {
				return err
			}
			res.WriteText(os.Stdout)
			fmt.Printf("residual contrast (new/old): %.2f×\n", res.Contrast())
			return nil
		}},
		{"fig5", func(s uint64) error {
			res, err := experiments.Fig5(experiments.Fig5Config{})
			if err != nil {
				return err
			}
			res.WriteText(os.Stdout)
			return nil
		}},
		{"fig7", func(s uint64) error {
			var failed []string
			for _, sweep := range []experiments.Fig7Sweep{
				experiments.SweepVgs, experiments.SweepEtr, experiments.SweepYtr,
			} {
				res, err := experiments.Fig7(sweep, experiments.Fig7Config{Seed: s, Curves: *csvDir != ""})
				if err != nil {
					return err
				}
				res.WriteText(os.Stdout)
				acc, psd := res.MaxErr()
				status := "PASS"
				if acc > fig7AccTol || psd > fig7PSDTol {
					status = "FAIL"
					failed = append(failed, string(sweep))
				}
				fmt.Printf("sweep %s: max R(tau) err %.4f (tol %.2f), max S(f) err %.4f (tol %.2f) — %s\n",
					sweep, acc, fig7AccTol, psd, fig7PSDTol, status)
				if *csvDir != "" {
					if err := res.WriteCurvesCSV(*csvDir); err != nil {
						return err
					}
				}
			}
			if len(failed) > 0 {
				return fmt.Errorf("validation error beyond tolerance in sweep(s) %s", strings.Join(failed, ", "))
			}
			return nil
		}},
		{"fig8", func(s uint64) error {
			res, err := experiments.Fig8(experiments.Fig8Config{Seed: s})
			if err != nil {
				return err
			}
			res.WriteText(os.Stdout)
			m5, m6 := res.NonStationaryContrast()
			fmt.Printf("activity contrast: M5 %.2f×, M6 %.2f×\n", m5, m6)
			if *csvDir != "" {
				return res.WriteSeriesCSV(*csvDir)
			}
			return nil
		}},
		{"t1", func(s uint64) error {
			res, err := experiments.T1(experiments.T1Config{Seed: s})
			if err != nil {
				return err
			}
			res.WriteText(os.Stdout)
			return nil
		}},
		{"t2", func(s uint64) error {
			res, err := experiments.T2(experiments.T2Config{Seed: s})
			if err != nil {
				return err
			}
			res.WriteText(os.Stdout)
			return nil
		}},
		{"t3", func(s uint64) error {
			res, err := experiments.T3(experiments.T3Config{Seed: s})
			if err != nil {
				return err
			}
			res.WriteText(os.Stdout)
			if *csvDir != "" {
				return res.WriteSeriesCSV(*csvDir)
			}
			return nil
		}},
		{"x1", func(s uint64) error {
			res, err := experiments.X1(experiments.X1Config{Seeds: 3})
			if err != nil {
				return err
			}
			res.WriteText(os.Stdout)
			return nil
		}},
		{"x2", func(s uint64) error {
			res, err := experiments.X2(experiments.X2Config{Cells: 48, Seed: s + 2})
			if err != nil {
				return err
			}
			res.WriteText(os.Stdout)
			return nil
		}},
		{"f9", func(s uint64) error {
			res, err := experiments.F9(experiments.F9Config{Seed: s})
			if err != nil {
				return err
			}
			res.WriteText(os.Stdout)
			return nil
		}},
		{"x3", func(s uint64) error {
			res, err := experiments.X3(experiments.X3Config{Seed: s})
			if err != nil {
				return err
			}
			res.WriteText(os.Stdout)
			return nil
		}},
		{"x4", func(s uint64) error {
			res, err := experiments.X4(experiments.X4Config{Seed: s})
			if err != nil {
				return err
			}
			res.WriteText(os.Stdout)
			return nil
		}},
		{"x5", func(s uint64) error {
			res, err := experiments.X5(experiments.X5Config{Seed: s + 2})
			if err != nil {
				return err
			}
			res.WriteText(os.Stdout)
			return nil
		}},
		{"x6", func(s uint64) error {
			res, err := experiments.X6(experiments.X6Config{Seed: s + 1})
			if err != nil {
				return err
			}
			res.WriteText(os.Stdout)
			return nil
		}},
		{"x7", func(s uint64) error {
			res, err := experiments.X7(experiments.X7Config{Seed: s})
			if err != nil {
				return err
			}
			res.WriteText(os.Stdout)
			return nil
		}},
		{"ablations", func(s uint64) error {
			for _, run := range []func(uint64) (*experiments.AblationResult, error){
				experiments.AblateIntegrationMethod,
				experiments.AblateTraceResolution,
				experiments.AblateWriteMargin,
			} {
				res, err := run(s)
				if err != nil {
					return err
				}
				res.WriteText(os.Stdout)
			}
			return nil
		}},
	}

	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			want[strings.TrimSpace(k)] = true
		}
	}
	for _, f := range all {
		if len(want) > 0 && !want[f.key] {
			continue
		}
		fmt.Printf("===== %s =====\n", f.key)
		if err := f.run(*seed); err != nil {
			log.Fatalf("%s: %v", f.key, err)
		}
		fmt.Println()
	}
}
