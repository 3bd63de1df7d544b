package circuit

import (
	"math"
	"testing"

	"samurai/internal/device"
	"samurai/internal/waveform"
)

// rcLadder builds an n-stage RC ladder driven by a step — a linear
// circuit big enough to exercise the sparse machinery but with an
// obvious dense reference.
func rcLadder(t *testing.T, n int) *Circuit {
	t.Helper()
	c := New()
	step, err := waveform.New([]float64{0, 1e-9}, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddVSource("V1", "n0", Ground, step); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		a := nodeLabel(i)
		b := nodeLabel(i + 1)
		if err := c.AddResistor("R"+b, a, b, 1000); err != nil {
			t.Fatal(err)
		}
		if err := c.AddCapacitor("C"+b, b, Ground, 1e-12); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func nodeLabel(i int) string {
	return "n" + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

// nonlinearChain builds a chain of resistor-loaded NMOS inverters, so
// the sparse path is exercised with a genuinely nonlinear Newton loop
// including the DC gmin ladder.
func nonlinearChain(t *testing.T, stages int) *Circuit {
	t.Helper()
	tech := device.Node("90nm")
	c := New()
	if err := c.AddDCVSource("VDD", "vdd", Ground, tech.Vdd); err != nil {
		t.Fatal(err)
	}
	step, err := waveform.New([]float64{0, 2e-10}, []float64{0, tech.Vdd})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddVSource("VIN", "s00", Ground, step); err != nil {
		t.Fatal(err)
	}
	nm := device.NewMOS(tech, device.NMOS, 4*tech.Lmin, tech.Lmin)
	for i := 0; i < stages; i++ {
		in := "s" + nodeLabel(i)[1:]
		out := "s" + nodeLabel(i + 1)[1:]
		if err := c.AddResistor("RL"+out, "vdd", out, 50e3); err != nil {
			t.Fatal(err)
		}
		if err := c.AddMOSFET("M"+out, out, in, Ground, nm); err != nil {
			t.Fatal(err)
		}
		if err := c.AddCapacitor("CL"+out, out, Ground, 2e-15); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestSparseMatchesDenseOperatingPoint pins the two backends to the
// same DC solution on a nonlinear circuit.
func TestSparseMatchesDenseOperatingPoint(t *testing.T) {
	for _, stages := range []int{3, 9} {
		dense, err := nonlinearChain(t, stages).OperatingPoint(nil, Options{Solver: SolverDense})
		if err != nil {
			t.Fatal(err)
		}
		sparse, err := nonlinearChain(t, stages).OperatingPoint(nil, Options{Solver: SolverSparse})
		if err != nil {
			t.Fatal(err)
		}
		for name, vd := range dense {
			vs, ok := sparse[name]
			if !ok {
				t.Fatalf("stages=%d: node %q missing from sparse solution", stages, name)
			}
			// Both solves run Newton to VTol with their own rounding;
			// agreement must be at tolerance scale, not machine scale.
			if math.Abs(vs-vd) > 2e-6 {
				t.Errorf("stages=%d node %s: sparse %.9g vs dense %.9g", stages, name, vs, vd)
			}
		}
	}
}

// TestSparseMatchesDenseTransient runs the same transient through both
// backends and compares every recorded node sample.
func TestSparseMatchesDenseTransient(t *testing.T) {
	spec := TransientSpec{
		T0: 0, T1: 2e-9, Dt: 1e-11, UIC: true,
		Options: Options{Method: BackwardEuler},
	}
	spec.Options.Solver = SolverDense
	rd, err := rcLadder(t, 20).Transient(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Options.Solver = SolverSparse
	rs, err := rcLadder(t, 20).Transient(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rd.Times) != len(rs.Times) {
		t.Fatalf("sample counts differ: %d vs %d", len(rd.Times), len(rs.Times))
	}
	for name, vd := range rd.V {
		vs := rs.V[name]
		for k := range vd {
			if math.Abs(vs[k]-vd[k]) > 1e-9 {
				t.Fatalf("node %s sample %d: sparse %.12g vs dense %.12g", name, k, vs[k], vd[k])
			}
		}
	}
	// Branch currents (the zero-diagonal MNA rows) must agree too.
	for name, id := range rd.SourceI {
		is := rs.SourceI[name]
		for k := range id {
			if math.Abs(is[k]-id[k]) > 1e-9 {
				t.Fatalf("source %s sample %d: sparse %.12g vs dense %.12g", name, k, is[k], id[k])
			}
		}
	}
}

// TestSolverAutoThreshold checks the automatic backend choice on both
// sides of the crossover.
func TestSolverAutoThreshold(t *testing.T) {
	small := rcLadder(t, 4) // ~10 unknowns
	stSmall := newStampCtx(small, Options{}.Defaults())
	if stSmall.a == nil {
		t.Fatal("small circuit should default to the dense backend")
	}
	big := rcLadder(t, 60) // ~62 unknowns
	stBig := newStampCtx(big, Options{}.Defaults())
	if stBig.a != nil || stBig.slu == nil {
		t.Fatal("array-scale circuit should default to the sparse backend")
	}
}

// TestSparsePatternRecordingStable verifies the scatter replay: after
// the first Newton iteration froze the pattern, hundreds of further
// stamps (DC ladder + transient steps, which exercise both capacitor
// stamp modes) must replay through it without divergence — the factor()
// cursor check panics if they do not.
func TestSparsePatternRecordingStable(t *testing.T) {
	c := nonlinearChain(t, 8)
	spec := TransientSpec{
		T0: 0, T1: 1e-9, Dt: 1e-11,
		Options: Options{Solver: SolverSparse},
	}
	res, err := c.Transient(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Times) < 100 {
		t.Fatalf("expected ≥100 samples, got %d", len(res.Times))
	}
	// The last inverter output must have switched low after the input
	// step propagated — i.e. the sparse run actually simulated.
	last := res.V["s"+nodeLabel(8)[1:]]
	if len(last) == 0 {
		t.Fatal("missing final stage samples")
	}
}
