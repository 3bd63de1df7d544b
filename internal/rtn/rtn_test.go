package rtn

import (
	"math"
	"slices"
	"testing"

	"samurai/internal/device"
	"samurai/internal/markov"
	"samurai/internal/units"
	"samurai/internal/waveform"
)

func testDev() device.MOSParams {
	return device.NewMOS(device.Node("90nm"), device.NMOS, 180e-9, 90e-9)
}

func pathWith(t0, tf float64, init bool, flips ...float64) *markov.Path {
	p := markov.NewPath(t0, tf, init)
	for _, f := range flips {
		p.Transition(f)
	}
	return p
}

func TestNFilledSingleTrap(t *testing.T) {
	p := pathWith(0, 10, false, 2, 5)
	times, counts := NFilled([]*markov.Path{p})
	wantT := []float64{0, 2, 5}
	wantC := []int{0, 1, 0}
	if len(times) != len(wantT) {
		t.Fatalf("times = %v", times)
	}
	for i := range wantT {
		if times[i] != wantT[i] || counts[i] != wantC[i] {
			t.Fatalf("NFilled = %v %v", times, counts)
		}
	}
}

func TestNFilledSuperposition(t *testing.T) {
	a := pathWith(0, 10, true, 4)     // filled on [0,4)
	b := pathWith(0, 10, false, 2, 6) // filled on [2,6)
	c := pathWith(0, 10, false, 2, 8) // filled on [2,8) — same edge time as b
	times, counts := NFilled([]*markov.Path{a, b, c})
	cases := map[float64]int{0.5: 1, 2.5: 3, 4.5: 2, 6.5: 1, 8.5: 0}
	for tt, want := range cases {
		if got := CountAt(times, counts, tt); got != want {
			t.Fatalf("count at %g = %d, want %d", tt, got, want)
		}
	}
}

func TestNFilledStartsAtEarliestPath(t *testing.T) {
	cases := []struct {
		name   string
		paths  []*markov.Path
		times  []float64
		counts []int
	}{
		{"transition-free path first", []*markov.Path{pathWith(0, 5, false), pathWith(1, 5, false, 2)}, []float64{0, 2}, []int{0, 1}},
		{"no transitions", []*markov.Path{pathWith(0, 5, false), pathWith(3, 5, true)}, []float64{0}, []int{1}},
		{"flip at a later path's start", []*markov.Path{pathWith(0, 5, false), pathWith(1, 5, false, 1)}, []float64{0, 1}, []int{0, 1}},
		{"no paths", nil, []float64{0}, []int{0}},
	}
	for _, tc := range cases {
		times, counts := NFilled(tc.paths)
		if !slices.Equal(times, tc.times) || !slices.Equal(counts, tc.counts) {
			t.Errorf("%s: NFilled = %v %v, want %v %v", tc.name, times, counts, tc.times, tc.counts)
		}
	}
}

func TestCountAtEdges(t *testing.T) {
	times := []float64{0, 1, 2}
	counts := []int{0, 1, 2}
	if CountAt(times, counts, -1) != 0 {
		t.Fatal("before start")
	}
	if CountAt(times, counts, 1) != 1 {
		t.Fatal("exact event time must use the new count")
	}
	if CountAt(times, counts, 99) != 2 {
		t.Fatal("after end")
	}
	if CountAt(nil, nil, 0) != 0 {
		t.Fatal("empty step function")
	}
}

func TestComposeEquation3(t *testing.T) {
	dev := testDev()
	p := pathWith(0, 1e-6, false, 0.4e-6)
	vgs, id := 1.2, 50e-6
	tr, err := ComposeConstant([]*markov.Path{p}, dev, vgs, id, 0, 1e-6, 101)
	if err != nil {
		t.Fatal(err)
	}
	dI := StepAmplitude(dev, vgs, id)
	// Before the flip: zero; after: exactly ΔI.
	if tr.I[10] != 0 {
		t.Fatalf("pre-flip current %g", tr.I[10])
	}
	if math.Abs(tr.I[80]-dI) > 1e-12*dI {
		t.Fatalf("post-flip current %g, want %g", tr.I[80], dI)
	}
}

func TestComposeScalesWithCount(t *testing.T) {
	dev := testDev()
	// Two traps filled simultaneously → exactly 2ΔI.
	a := pathWith(0, 1e-6, true)
	b := pathWith(0, 1e-6, true)
	tr, err := ComposeConstant([]*markov.Path{a, b}, dev, 1.2, 50e-6, 0, 1e-6, 11)
	if err != nil {
		t.Fatal(err)
	}
	dI := StepAmplitude(dev, 1.2, 50e-6)
	if math.Abs(tr.I[5]-2*dI) > 1e-12*dI {
		t.Fatalf("two-trap current %g, want %g", tr.I[5], 2*dI)
	}
}

func TestComposeTracksBiasWaveform(t *testing.T) {
	dev := testDev()
	p := pathWith(0, 1e-6, true)
	// Drain current ramps 0→100µA: I_RTN must ramp proportionally.
	id, err := waveform.New([]float64{0, 1e-6}, []float64{0, 100e-6})
	if err != nil {
		t.Fatal(err)
	}
	vgs := waveform.Constant(1.2)
	tr, err := Compose([]*markov.Path{p}, dev, vgs, id, 0, 1e-6, 101)
	if err != nil {
		t.Fatal(err)
	}
	if tr.I[0] != 0 {
		t.Fatalf("zero-current bias should give zero RTN, got %g", tr.I[0])
	}
	mid, end := tr.I[50], tr.I[100]
	if math.Abs(end-2*mid) > 1e-9*end {
		t.Fatalf("RTN does not track I_d: mid %g end %g", mid, end)
	}
}

func TestComposeRejectsBadArgs(t *testing.T) {
	dev := testDev()
	p := pathWith(0, 1, false)
	if _, err := ComposeConstant([]*markov.Path{p}, dev, 1, 1e-6, 0, 1, 1); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := ComposeConstant([]*markov.Path{p}, dev, 1, 1e-6, 1, 0, 10); err == nil {
		t.Fatal("reversed interval accepted")
	}
}

func TestScaleAndStats(t *testing.T) {
	tr := &Trace{T: []float64{0, 1, 2}, I: []float64{1, -2, 3}}
	tr.Scale(2)
	if tr.I[1] != -4 {
		t.Fatal("Scale wrong")
	}
	if tr.MaxAbs() != 6 {
		t.Fatalf("MaxAbs = %g", tr.MaxAbs())
	}
	if math.Abs(tr.Mean()-4.0/3) > 1e-12 {
		t.Fatalf("Mean = %g", tr.Mean())
	}
}

func TestTracePWLRoundTrip(t *testing.T) {
	tr := &Trace{T: []float64{0, 1e-9, 2e-9}, I: []float64{0, 1e-6, 0.5e-6}}
	w, err := tr.PWL()
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.T {
		if w.Eval(tr.T[i]) != tr.I[i] {
			t.Fatal("PWL disagrees with trace samples")
		}
	}
}

func TestStepAmplitudeEquation(t *testing.T) {
	dev := testDev()
	vgs, id := 1.2, 50e-6
	want := id / dev.CarrierCount(vgs)
	if got := StepAmplitude(dev, vgs, id); math.Abs(got-want) > 1e-15 {
		t.Fatalf("StepAmplitude = %g, want %g", got, want)
	}
}

func TestDeltaVtFormula(t *testing.T) {
	dev := testDev()
	want := units.ElectronCharge / dev.GateCap()
	if got := DeltaVt(dev); math.Abs(got-want) > 1e-18 {
		t.Fatalf("DeltaVt = %g, want %g", got, want)
	}
	// Smaller devices shift more per trap.
	small := device.NewMOS(device.Node("32nm"), device.NMOS, 64e-9, 32e-9)
	if DeltaVt(small) <= DeltaVt(dev) {
		t.Fatal("DeltaVt must grow as area shrinks")
	}
}

func TestPWLIsIsolatedFromLaterScale(t *testing.T) {
	// Exporting a waveform and then scaling the trace must not change
	// the exported waveform (regression: PWL used to alias the
	// trace's sample slice).
	tr := &Trace{T: []float64{0, 1}, I: []float64{1, 2}}
	w, err := tr.PWL()
	if err != nil {
		t.Fatal(err)
	}
	tr.Scale(30)
	if w.Eval(1) != 2 {
		t.Fatalf("exported waveform mutated by Scale: %g", w.Eval(1))
	}
}
