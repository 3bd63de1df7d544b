package samurai_test

// BenchmarkRareSpeedup pins the rare-event engine's economics: the
// importance-sampling battery must both pass its unbiasedness gates
// and, on its deepest row, displace at least 100x the paths a naive
// Monte-Carlo estimator would spend to reach the same 95% CI
// half-width. The speedup lands in bench_trajectory.json as
// paths-speedup-x, so the trajectory records the variance reduction
// next to the wall clock it costs.

import (
	"fmt"
	"os"
	"testing"

	"samurai/internal/rareevent"
	"samurai/internal/vv"
)

func BenchmarkRareSpeedup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := vv.RunRareMatrix(vv.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Pass {
			b.Fatal("rare-event battery rejected the engine")
		}
		best, bestRow := 0.0, ""
		printTable("Rare-event speedup", func() {
			fmt.Fprintln(os.Stdout, "Importance-sampling paths-to-CI economics (z = 1.96)")
			fmt.Fprintf(os.Stdout, "%22s %9s %6s %12s %12s %12s %10s\n",
				"row", "tilt (eV)", "paths", "p_fail", "ci_half", "naive paths", "speedup")
		})
		for _, sc := range rep.Scenarios {
			st := sc.Rare
			if st == nil || st.PFail <= 0 || st.CIHalf <= 0 {
				continue
			}
			naive := rareevent.NaivePaths(st.PFail, st.CIHalf, rareevent.Z95)
			speedup := naive / float64(st.N)
			printTable("Rare-event speedup row "+sc.Name, func() {
				fmt.Fprintf(os.Stdout, "%22s %9.3f %6d %12.3e %12.3e %12.3e %9.1fx\n",
					sc.Name, st.TiltEV, st.N, st.PFail, st.CIHalf, naive, speedup)
			})
			if speedup > best {
				best, bestRow = speedup, sc.Name
			}
		}
		b.ReportMetric(best, "paths-speedup-x")
		if best < 100 {
			b.Fatalf("deepest row %s reaches only %.1fx paths-to-CI speedup, want >= 100x", bestRow, best)
		}
	}
}
