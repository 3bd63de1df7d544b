package circuit

import (
	"math"
	"strings"
	"testing"

	"samurai/internal/device"
	"samurai/internal/waveform"
)

func TestDuplicateElementNameRejected(t *testing.T) {
	c := New()
	if err := c.AddResistor("R1", "a", "b", 100); err != nil {
		t.Fatal(err)
	}
	if err := c.AddResistor("R1", "b", "c", 100); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

// TestInvalidElementValues: a non-positive or non-finite resistance,
// a resistance whose conductance overflows, and a non-positive or
// non-finite capacitance are refused, and leave nothing behind.
func TestInvalidElementValues(t *testing.T) {
	addR := func(c *Circuit, v float64) error { return c.AddResistor("R", "a", "b", v) }
	addC := func(c *Circuit, v float64) error { return c.AddCapacitor("C", "a", "b", v) }
	for _, tc := range []struct {
		name string
		add  func(c *Circuit, v float64) error
		v    float64
		want string
	}{
		{"zero resistance", addR, 0, "non-positive"},
		{"NaN resistance", addR, math.NaN(), "non-finite"},
		{"infinite resistance", addR, math.Inf(1), "non-finite"},
		{"overflowing conductance", addR, 1e-320, "non-finite"},
		{"negative capacitance", addC, -1, "non-positive"},
		{"NaN capacitance", addC, math.NaN(), "non-finite"},
		{"infinite capacitance", addC, math.Inf(1), "non-finite"},
	} {
		c := New()
		if err := tc.add(c, tc.v); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want a %s value error", tc.name, err, tc.want)
		}
		if len(c.elems) != 0 || c.Size() != 0 {
			t.Errorf("%s: rejected element left %d elements and %d unknowns behind", tc.name, len(c.elems), c.Size())
		}
	}
}

func TestNodeInterningAndAccessors(t *testing.T) {
	c := New()
	c.AddResistor("R1", "a", "b", 100)
	c.AddResistor("R2", "b", Ground, 100)
	if got := len(c.Nodes()); got != 2 {
		t.Fatalf("node count = %d", got)
	}
	if idx, ok := c.NodeIndex(Ground); !ok || idx != -1 {
		t.Fatal("ground index wrong")
	}
	if _, ok := c.NodeIndex("zzz"); ok {
		t.Fatal("unknown node found")
	}
}

func TestVSourceBranchCurrent(t *testing.T) {
	// V across R: the source's branch current must equal V/R. Verify
	// indirectly through node voltages and KCL: current into R equals
	// (v_in − 0)/R.
	c := New()
	c.AddDCVSource("V1", "in", Ground, 3)
	c.AddResistor("R1", "in", Ground, 1500)
	op, err := c.OperatingPoint(nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(op["in"]-3) > 1e-9 {
		t.Fatalf("source voltage not enforced: %g", op["in"])
	}
}

func TestISourceInjection(t *testing.T) {
	// 1 mA pushed into a 1 kΩ load: 1 V across it.
	c := New()
	c.AddISource("I1", Ground, "out", waveform.Constant(1e-3))
	c.AddResistor("RL", "out", Ground, 1000)
	op, err := c.OperatingPoint(nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(op["out"]-1) > 1e-6 {
		t.Fatalf("out = %g, want 1", op["out"])
	}
}

func TestSetISourceWaveform(t *testing.T) {
	c := New()
	c.AddISource("I1", Ground, "out", waveform.Constant(0))
	c.AddResistor("RL", "out", Ground, 1000)
	if err := c.SetISourceWaveform("I1", waveform.Constant(2e-3)); err != nil {
		t.Fatal(err)
	}
	op, err := c.OperatingPoint(nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(op["out"]-2) > 1e-6 {
		t.Fatalf("out = %g after waveform swap", op["out"])
	}
	if err := c.SetISourceWaveform("nope", waveform.Constant(0)); err == nil {
		t.Fatal("unknown source accepted")
	}
}

func TestFloatingNodeReported(t *testing.T) {
	c := New()
	// A capacitor to a floating node in DC has no path: gmin keeps the
	// matrix solvable, so this must converge with the node near 0.
	c.AddDCVSource("V1", "in", Ground, 1)
	c.AddCapacitor("C1", "in", "float", 1e-12)
	op, err := c.OperatingPoint(nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(op["float"]-1) > 0.2 {
		// With only tiny leak conductances the node follows via the
		// cap's DC leak; either way it must be finite.
		if math.IsNaN(op["float"]) || math.IsInf(op["float"], 0) {
			t.Fatal("floating node voltage is not finite")
		}
	}
}

// Integration order check on a smooth drive: halving dt must shrink
// backward Euler's error ~2× (first order) and trapezoidal's ~4×
// (second order).
func TestIntegrationOrders(t *testing.T) {
	// RC driven by a PWL approximation of a sine (dense breakpoints so
	// the source itself contributes negligible error).
	const (
		rOhm = 1000.0
		cF   = 1e-6
		f0   = 200.0
	)
	tau := rOhm * cF
	w := 2 * math.Pi * f0
	// Steady-state analytic response to sin(wt):
	// v(t) = (sin(wt) − wτ·cos(wt) + wτ·e^(−t/τ)) / (1 + (wτ)²)
	exact := func(tt float64) float64 {
		return (math.Sin(w*tt) - w*tau*math.Cos(w*tt) + w*tau*math.Exp(-tt/tau)) / (1 + w*tau*w*tau)
	}
	run := func(m Method, dt float64) float64 {
		n := 4001
		ts := make([]float64, n)
		vs := make([]float64, n)
		for i := range ts {
			ts[i] = 5e-3 * float64(i) / float64(n-1)
			vs[i] = math.Sin(w * ts[i])
		}
		src, err := waveform.New(ts, vs)
		if err != nil {
			t.Fatal(err)
		}
		c := New()
		c.AddVSource("V1", "in", Ground, src)
		c.AddResistor("R1", "in", "out", rOhm)
		c.AddCapacitor("C1", "out", Ground, cF)
		res, err := c.Transient(TransientSpec{
			T0: 0, T1: 4e-3, Dt: dt, UIC: true,
			Options: Options{Method: m},
		})
		if err != nil {
			t.Fatal(err)
		}
		v, _ := res.Voltage("out")
		worst := 0.0
		for _, tt := range []float64{1e-3, 2e-3, 3e-3} {
			if d := math.Abs(v.Eval(tt) - exact(tt)); d > worst {
				worst = d
			}
		}
		return worst
	}
	beCoarse, beFine := run(BackwardEuler, 4e-5), run(BackwardEuler, 2e-5)
	trCoarse, trFine := run(Trapezoidal, 4e-5), run(Trapezoidal, 2e-5)
	if r := beCoarse / beFine; r < 1.5 || r > 3 {
		t.Fatalf("BE convergence ratio %g, want ≈2", r)
	}
	if r := trCoarse / trFine; r < 3 || r > 6 {
		t.Fatalf("trapezoidal convergence ratio %g, want ≈4", r)
	}
	if trCoarse > beCoarse/4 {
		t.Fatalf("trapezoidal (%g) not clearly better than BE (%g) on smooth drive", trCoarse, beCoarse)
	}
}

func TestChargeConservationRCDecay(t *testing.T) {
	// A charged cap discharging through R: total delivered charge must
	// equal C·V0.
	c := New()
	c.AddResistor("R1", "top", Ground, 1000)
	c.AddCapacitor("C1", "top", Ground, 1e-6)
	res, err := c.Transient(TransientSpec{
		T0: 0, T1: 10e-3, Dt: 5e-6, UIC: true,
		InitialV: map[string]float64{"top": 2},
		Options:  Options{Method: Trapezoidal},
	})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := res.Voltage("top")
	// ∫ v/R dt = C·V0 (all initial charge flows out).
	charge := v.Integral(0, 10e-3) / 1000
	want := 1e-6 * 2.0
	if math.Abs(charge-want) > 0.01*want {
		t.Fatalf("delivered charge %g, want %g", charge, want)
	}
}

func TestKCLResidualAtConvergence(t *testing.T) {
	// After a converged nonlinear DC solve, node currents must balance.
	tech := device.Node("90nm")
	c := New()
	c.AddDCVSource("VDD", "vdd", Ground, tech.Vdd)
	c.AddDCVSource("VIN", "in", Ground, 0.6)
	c.AddResistor("RL", "vdd", "out", 50e3)
	nm := device.NewMOS(tech, device.NMOS, 4*tech.Lmin, tech.Lmin)
	c.AddMOSFET("M1", "out", "in", Ground, nm)
	op, err := c.OperatingPoint(map[string]float64{"vdd": tech.Vdd, "out": tech.Vdd / 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// KCL at "out": resistor current in == device current out.
	iR := (op["vdd"] - op["out"]) / 50e3
	iM := nm.Eval(op["in"], op["out"]).Ids
	if math.Abs(iR-iM) > 1e-6*math.Abs(iM)+1e-9 {
		t.Fatalf("KCL residual at out: %g vs %g", iR, iM)
	}
}

func TestRunnerStepByStepMatchesTransient(t *testing.T) {
	build := func() *Circuit {
		c := New()
		step, _ := waveform.New([]float64{0, 1e-9}, []float64{0, 1})
		c.AddVSource("V1", "in", Ground, step)
		c.AddResistor("R1", "in", "out", 1000)
		c.AddCapacitor("C1", "out", Ground, 1e-9)
		return c
	}
	spec := TransientSpec{T0: 0, T1: 1e-6, Dt: 1e-8, UIC: true}
	full, err := build().Transient(spec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := build().NewRunner(spec)
	if err != nil {
		t.Fatal(err)
	}
	for !r.Done() {
		if err := r.Step(spec.Dt); err != nil {
			t.Fatal(err)
		}
	}
	stepwise := r.Result()
	if len(full.Times) != len(stepwise.Times) {
		t.Fatalf("lengths differ: %d vs %d", len(full.Times), len(stepwise.Times))
	}
	for i := range full.Times {
		if math.Abs(full.V["out"][i]-stepwise.V["out"][i]) > 1e-12 {
			t.Fatal("stepwise result diverges from Transient")
		}
	}
}

func TestRunnerAccessors(t *testing.T) {
	tech := device.Node("90nm")
	c := New()
	c.AddDCVSource("VDD", "vdd", Ground, tech.Vdd)
	nm := device.NewMOS(tech, device.NMOS, 2*tech.Lmin, tech.Lmin)
	c.AddMOSFET("M1", "vdd", "vdd", Ground, nm)
	r, err := c.NewRunner(TransientSpec{T0: 0, T1: 1e-9, Dt: 1e-10, UIC: true,
		InitialV: map[string]float64{"vdd": tech.Vdd}})
	if err != nil {
		t.Fatal(err)
	}
	if v, err := r.NodeVoltage("vdd"); err != nil || math.Abs(v-tech.Vdd) > 1e-9 {
		t.Fatalf("NodeVoltage = %g, %v", v, err)
	}
	if _, err := r.NodeVoltage("nope"); err == nil {
		t.Fatal("unknown node accepted")
	}
	if _, _, _, err := r.DeviceOp("M1"); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := r.DeviceOp("MX"); err == nil {
		t.Fatal("unknown device accepted")
	}
}

func TestMOSFETAccessors(t *testing.T) {
	tech := device.Node("90nm")
	c := New()
	nm := device.NewMOS(tech, device.NMOS, 2*tech.Lmin, tech.Lmin)
	c.AddMOSFET("M1", "d", "g", "s", nm)
	names := c.MOSFETNames()
	if len(names) != 1 || names[0] != "M1" {
		t.Fatalf("names = %v", names)
	}
	p, err := c.MOSFETParams("M1")
	if err != nil || p.W != nm.W {
		t.Fatal("params lookup broken")
	}
	d, g, s, err := c.MOSFETNodes("M1")
	if err != nil || d != "d" || g != "g" || s != "s" {
		t.Fatal("nodes lookup broken")
	}
	if _, err := c.MOSFETParams("M9"); err == nil {
		t.Fatal("unknown MOSFET accepted")
	}
}

func TestTransientRejectsBadSpec(t *testing.T) {
	c := New()
	c.AddResistor("R", "a", Ground, 1)
	if _, err := c.Transient(TransientSpec{T0: 0, T1: 0, Dt: 1}); err == nil {
		t.Fatal("empty interval accepted")
	}
	if _, err := c.Transient(TransientSpec{T0: 0, T1: 1, Dt: 0}); err == nil {
		t.Fatal("zero dt accepted")
	}
}

func TestDeviceBiasRecording(t *testing.T) {
	tech := device.Node("90nm")
	c := New()
	c.AddDCVSource("VDD", "vdd", Ground, tech.Vdd)
	c.AddDCVSource("VG", "g", Ground, tech.Vdd)
	c.AddResistor("RD", "vdd", "d", 10e3)
	nm := device.NewMOS(tech, device.NMOS, 2*tech.Lmin, tech.Lmin)
	c.AddMOSFET("M1", "d", "g", Ground, nm)
	res, err := c.Transient(TransientSpec{T0: 0, T1: 1e-9, Dt: 1e-10, UIC: false})
	if err != nil {
		t.Fatal(err)
	}
	vgs, id, err := res.DeviceBias("M1")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vgs.Eval(0.5e-9)-tech.Vdd) > 1e-6 {
		t.Fatalf("recorded vgs = %g", vgs.Eval(0.5e-9))
	}
	if id.Eval(0.5e-9) <= 0 {
		t.Fatal("recorded Id must be positive for a conducting NMOS")
	}
	if _, _, err := res.DeviceBias("MX"); err == nil {
		t.Fatal("unknown device accepted")
	}
	if _, err := res.Voltage("zz"); err == nil {
		t.Fatal("unknown node accepted")
	}
}

func TestSourceBranchCurrentRecording(t *testing.T) {
	// Series source→R→ground: branch current must equal V/R at all
	// times, and the supply-energy integral must equal V²/R·T.
	c := New()
	c.AddDCVSource("V1", "in", Ground, 2)
	c.AddResistor("R1", "in", Ground, 1000)
	res, err := c.Transient(TransientSpec{T0: 0, T1: 1e-6, Dt: 1e-8, UIC: false})
	if err != nil {
		t.Fatal(err)
	}
	iw, err := res.SourceCurrent("V1")
	if err != nil {
		t.Fatal(err)
	}
	// The MNA branch current flows +→through-source→−, so a sourcing
	// supply shows a negative branch current of magnitude V/R.
	if got := iw.Eval(0.5e-6); math.Abs(got+2.0/1000) > 1e-9 {
		t.Fatalf("branch current = %g, want %g", got, -2.0/1000)
	}
	energy := -iw.Integral(0, 1e-6) * 2 // ∫ V·I dt with constant V
	want := 2 * 2 / 1000.0 * 1e-6
	if math.Abs(energy-want) > 1e-3*want {
		t.Fatalf("delivered energy %g, want %g", energy, want)
	}
	if _, err := res.SourceCurrent("nope"); err == nil {
		t.Fatal("unknown source accepted")
	}
}

func TestRunnerSubsteppingRecoversFromHardStep(t *testing.T) {
	// A huge current spike injected into a tiny-capacitance node for
	// exactly one step is a brutal Newton problem at the full step; the
	// runner must fall back to sub-steps rather than fail.
	tech := device.Node("32nm")
	c := New()
	c.AddDCVSource("VDD", "vdd", Ground, tech.Vdd)
	nm := device.NewMOS(tech, device.NMOS, 2*tech.Lmin, tech.Lmin)
	c.AddMOSFET("M1", "out", "vdd", Ground, nm)
	c.AddResistor("RL", "vdd", "out", 20e3)
	c.AddCapacitor("C1", "out", Ground, 0.2e-15)
	spike, _ := waveform.New(
		[]float64{0, 1e-9, 1.0001e-9, 1.2e-9, 1.2001e-9},
		[]float64{0, 0, 5e-3, 5e-3, 0})
	c.AddISource("I1", Ground, "out", spike)
	res, err := c.Transient(TransientSpec{
		T0: 0, T1: 3e-9, Dt: 50e-12, UIC: true,
		InitialV: map[string]float64{"vdd": tech.Vdd},
		Options:  Options{MaxNewton: 40},
	})
	if err != nil {
		t.Fatalf("transient failed despite sub-stepping: %v", err)
	}
	v, _ := res.Voltage("out")
	if math.IsNaN(v.Eval(2e-9)) {
		t.Fatal("solution corrupted")
	}
}

func TestRunnerStepAfterDone(t *testing.T) {
	c := New()
	c.AddResistor("R1", "a", Ground, 1000)
	c.AddDCVSource("V1", "a", Ground, 1)
	r, err := c.NewRunner(TransientSpec{T0: 0, T1: 1e-9, Dt: 1e-9, UIC: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Step(1e-9); err != nil {
		t.Fatal(err)
	}
	if !r.Done() {
		t.Fatal("runner should be done")
	}
	if err := r.Step(1e-9); err == nil {
		t.Fatal("stepping past the end must error")
	}
}

func TestOperatingPointNonConvergenceReported(t *testing.T) {
	// Two ideal voltage sources fighting over one node: the MNA matrix
	// is structurally singular, which must surface as an error, not a
	// panic or a bogus answer.
	c := New()
	c.AddDCVSource("V1", "a", Ground, 1)
	c.AddDCVSource("V2", "a", Ground, 2)
	if _, err := c.OperatingPoint(nil, Options{}); err == nil {
		t.Fatal("conflicting ideal sources accepted")
	}
}

func TestPulseGuardRejectsAbsurdTrains(t *testing.T) {
	_, err := ParseDeck(strings.NewReader(
		"V1 a 0 PULSE(0 1 0 1p 1p 1p 4p)\nR1 a 0 1k\n.tran 1p 1\n"))
	if err == nil {
		t.Fatal("10^11-period pulse train accepted")
	}
}
