package sram

import (
	"math"
	"strings"
	"testing"

	"samurai/internal/device"
	"samurai/internal/waveform"
)

func TestTimingValidation(t *testing.T) {
	good := DefaultTiming()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Cycle = 0
	if bad.Validate() == nil {
		t.Fatal("zero cycle accepted")
	}
	bad = good
	bad.WLStartFrac, bad.WLStopFrac = 0.8, 0.5
	if bad.Validate() == nil {
		t.Fatal("inverted WL window accepted")
	}
	bad = good
	bad.Rise = good.Cycle
	if bad.Validate() == nil {
		t.Fatal("huge rise time accepted")
	}
}

func TestPatternWaveformShapes(t *testing.T) {
	p := Pattern{Bits: []int{1, 0}, Timing: DefaultTiming(), Vdd: 1.0}
	wl, bl, blb, err := p.Waveforms()
	if err != nil {
		t.Fatal(err)
	}
	// Mid WL window of cycle 0: WL high, BL carries 1, BLB carries 0.
	on0, off0 := p.WLWindow(0)
	mid0 := (on0 + off0) / 2
	if wl.Eval(mid0) != 1.0 || bl.Eval(mid0) != 1.0 || blb.Eval(mid0) != 0.0 {
		t.Fatalf("cycle 0 drive wrong: wl=%g bl=%g blb=%g", wl.Eval(mid0), bl.Eval(mid0), blb.Eval(mid0))
	}
	// Cycle 1 writes a 0.
	on1, off1 := p.WLWindow(1)
	mid1 := (on1 + off1) / 2
	if bl.Eval(mid1) != 0.0 || blb.Eval(mid1) != 1.0 {
		t.Fatalf("cycle 1 bitlines wrong: bl=%g blb=%g", bl.Eval(mid1), blb.Eval(mid1))
	}
	// Between WL windows the wordline is low.
	gap := off0 + (on1-off0)/2
	if wl.Eval(gap) != 0 {
		t.Fatalf("WL not low between cycles: %g", wl.Eval(gap))
	}
}

func TestPatternRejectsBadInput(t *testing.T) {
	p := Pattern{Bits: nil, Timing: DefaultTiming(), Vdd: 1}
	if _, _, _, err := p.Waveforms(); err == nil {
		t.Fatal("empty pattern accepted")
	}
	p = Pattern{Bits: []int{1}, Timing: DefaultTiming(), Vdd: 0}
	if _, _, _, err := p.Waveforms(); err == nil {
		t.Fatal("zero Vdd accepted")
	}
}

func TestFig8PatternBits(t *testing.T) {
	p := Fig8Pattern(1.2)
	want := []int{1, 1, 0, 1, 0, 1, 0, 0, 1}
	if len(p.Bits) != len(want) {
		t.Fatal("pattern length wrong")
	}
	for i := range want {
		if p.Bits[i] != want[i] {
			t.Fatal("pattern differs from the paper")
		}
	}
	if p.Duration() != 9*p.Timing.Cycle {
		t.Fatal("duration wrong")
	}
}

func TestDeviceParamsSizing(t *testing.T) {
	cfg := CellConfig{Tech: device.Node("90nm")}.Defaults()
	params, err := DeviceParams(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if params["M5"].W != cfg.WPullDown || params["M5"].Type != device.NMOS {
		t.Fatal("pull-down params wrong")
	}
	if params["M3"].Type != device.PMOS || params["M3"].W != cfg.WPullUp {
		t.Fatal("pull-up params wrong")
	}
	if params["M1"].W != cfg.WPassGate {
		t.Fatal("pass-gate params wrong")
	}
}

func TestDeviceParamsVtShift(t *testing.T) {
	cfg := CellConfig{Tech: device.Node("90nm"), VtShift: map[string]float64{"M5": 0.05}}
	params, err := DeviceParams(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := DeviceParams(CellConfig{Tech: device.Node("90nm")})
	if math.Abs(params["M5"].Vt-base["M5"].Vt-0.05) > 1e-12 {
		t.Fatal("Vt shift not applied")
	}
	cfg.VtShift = map[string]float64{"M9": 0.05}
	if _, err := DeviceParams(cfg); err == nil {
		t.Fatal("unknown transistor VtShift accepted")
	}
}

// TestBuildRejectsNonFiniteVtShift: a NaN or infinite VtShift reaches
// the device's Vt and fails at Build, naming the transistor and the
// field, instead of surfacing later as a singular MNA matrix.
func TestBuildRejectsNonFiniteVtShift(t *testing.T) {
	for _, dv := range []float64{math.NaN(), math.Inf(1)} {
		cfg := CellConfig{Tech: device.Node("90nm"), VtShift: map[string]float64{"M5": dv}}
		_, err := Build(cfg, waveform.Constant(0), waveform.Constant(1), waveform.Constant(1))
		if err == nil || !strings.Contains(err.Error(), `"M5"`) || !strings.Contains(err.Error(), "Vt") {
			t.Fatalf("VtShift %v: error %v, want one naming M5's Vt", dv, err)
		}
	}
}

func TestBuildRejectsUnknownVtShift(t *testing.T) {
	cfg := CellConfig{Tech: device.Node("90nm"), VtShift: map[string]float64{"MX": 0.1}}
	_, err := Build(cfg, waveform.Constant(0), waveform.Constant(1), waveform.Constant(1))
	if err == nil {
		t.Fatal("Build accepted bad VtShift")
	}
}

func TestSetRTNTraceValidation(t *testing.T) {
	p := Fig8Pattern(device.Node("90nm").Vdd)
	cell := buildDefaultCell(t, p)
	if err := cell.SetRTNTrace("M9", nil); err == nil {
		t.Fatal("unknown transistor accepted")
	}
	if err := cell.SetRTNTrace("M1", nil); err != nil {
		t.Fatal("nil trace (clear) rejected")
	}
}

func TestWritesWithVariationStillMostlyWork(t *testing.T) {
	// Moderate Vt variation must not break nominal-voltage writes.
	tech := device.Node("90nm")
	cfg := CellConfig{Tech: tech, VtShift: map[string]float64{
		"M1": 0.02, "M2": -0.02, "M5": 0.03, "M6": -0.01,
	}}
	p := Fig8Pattern(tech.Vdd)
	wl, bl, blb, err := p.Waveforms()
	if err != nil {
		t.Fatal(err)
	}
	cell, err := Build(cfg, wl, bl, blb)
	if err != nil {
		t.Fatal(err)
	}
	run, err := cell.Evaluate(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if run.NumError != 0 {
		t.Fatalf("moderate variation caused %d errors", run.NumError)
	}
}

func TestClassifyCyclesDirect(t *testing.T) {
	p := Pattern{Bits: []int{1, 0}, Timing: DefaultTiming(), Vdd: 1.0}
	// Synthetic Q: correct 1 in cycle 0, stuck high (wrong) in cycle 1.
	q, err := waveform.New(
		[]float64{0, 0.5e-9, 4e-9},
		[]float64{0, 1, 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	cycles := ClassifyCycles(p, q)
	if !cycles[0].Written {
		t.Fatal("cycle 0 should pass")
	}
	if cycles[1].Written {
		t.Fatal("cycle 1 should fail (Q stuck high while writing 0)")
	}
	if !cycles[1].Slow || !math.IsInf(cycles[1].SettleAfterWL, 1) {
		t.Fatal("failed cycle must be marked slow with infinite settle")
	}
}

func TestCalibrationMonotone(t *testing.T) {
	// More node capacitance → later trip crossing.
	tech := device.Node("32nm")
	cfg := CellConfig{Tech: tech, Vdd: 0.6}.Defaults()
	small := cfg
	small.CNode = 10e-15
	big := cfg
	big.CNode = 60e-15
	fs, err := WriteCrossFracForTest(small, DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	fb, err := WriteCrossFracForTest(big, DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	if fb <= fs {
		t.Fatalf("cross frac not monotone in CNode: %g vs %g", fs, fb)
	}
}

func TestMarginalCellCalibration(t *testing.T) {
	tech := device.Node("32nm")
	cfg, err := MarginalCellConfig(CellConfig{Tech: tech, Vdd: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	frac, err := WriteCrossFracForTest(cfg, DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(frac-MarginalCellTripFrac) > 0.03 {
		t.Fatalf("calibrated trip frac %g, want ≈%g", frac, MarginalCellTripFrac)
	}
	// The marginal cell still writes cleanly.
	p := Fig8Pattern(0.6)
	wl, bl, blb, _ := p.Waveforms()
	cell, err := Build(cfg, wl, bl, blb)
	if err != nil {
		t.Fatal(err)
	}
	run, err := cell.Evaluate(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if run.NumError != 0 {
		t.Fatalf("marginal cell fails clean writes: %d", run.NumError)
	}
}

func TestCalibrateRejectsBadTarget(t *testing.T) {
	if _, err := CalibrateCNode(CellConfig{Tech: device.Node("90nm")}, DefaultTiming(), 1.5); err == nil {
		t.Fatal("target > 1 accepted")
	}
}
