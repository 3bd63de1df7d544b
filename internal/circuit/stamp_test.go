package circuit

import (
	"math"
	"strings"
	"testing"

	"samurai/internal/device"
)

// TestMOSMemoKeyIsBitPattern: Eval(vgs, −0) returns Ids = −0 where
// Eval(vgs, +0) returns +0, and −0 == +0, so a memo keyed on == would
// hand back +0 for the second call.
func TestMOSMemoKeyIsBitPattern(t *testing.T) {
	tech := device.Node("90nm")
	for _, typ := range []device.MOSType{device.NMOS, device.PMOS} {
		dev := device.NewMOS(tech, typ, 2*tech.Lmin, tech.Lmin).Compile()
		vgs := 0.8
		if typ == device.PMOS {
			vgs = -0.8
		}
		negZero := math.Copysign(0, -1)
		want := dev.Eval(vgs, negZero).Ids
		if math.Float64bits(want) == math.Float64bits(dev.Eval(vgs, 0).Ids) {
			t.Fatalf("%v: Eval(vgs, ±0) agree in sign; the test needs them to differ", typ)
		}
		var m mosMemo
		m.eval(&dev, vgs, 0)
		if got := m.eval(&dev, vgs, negZero).Ids; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%v: memo after +0 returned Ids %v (%#x) for vds = −0, want %#x",
				typ, got, math.Float64bits(got), math.Float64bits(want))
		}
		if got := m.eval(&dev, vgs, negZero); *got != dev.Eval(vgs, negZero) {
			t.Fatalf("%v: repeated bias returned %+v", typ, *got)
		}
	}
}

// rcDeck is the circuit of the spicesim deck V1 a 0 DC 1 / R1 a b 1k /
// C1 b 0 1p.
func rcDeck(t *testing.T) *Circuit {
	t.Helper()
	c := New()
	if err := c.AddDCVSource("V1", "a", Ground, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.AddResistor("R1", "a", "b", 1e3); err != nil {
		t.Fatal(err)
	}
	if err := c.AddCapacitor("C1", "b", Ground, 1e-12); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestNewRunnerRejectsNonFiniteSpan: an infinite or NaN T0, T1 or Dt is
// an error, not a makeslice panic.
func TestNewRunnerRejectsNonFiniteSpan(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, spec := range []TransientSpec{
		{T0: 0, T1: inf, Dt: 1e-12, UIC: true},
		{T0: 0, T1: 1e-9, Dt: nan, UIC: true},
		{T0: nan, T1: 1e-9, Dt: 1e-12, UIC: true},
		{T0: -inf, T1: 1e-9, Dt: 1e-12, UIC: true},
		{T0: 0, T1: 1e-9, Dt: inf, UIC: true},
	} {
		_, err := rcDeck(t).NewRunner(spec)
		if err == nil || !strings.Contains(err.Error(), "finite") {
			t.Fatalf("T0=%g T1=%g Dt=%g: error %v, want a finite-span error", spec.T0, spec.T1, spec.Dt, err)
		}
	}
}

// TestNewRunnerBoundsPreallocation: a finite but enormous step count
// preallocates maxPrealloc samples and grows from there, instead of
// asking for (T1−T0)/Dt samples at once.
func TestNewRunnerBoundsPreallocation(t *testing.T) {
	r, err := rcDeck(t).NewRunner(TransientSpec{T0: 0, T1: 1e-3, Dt: 1e-18, UIC: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.times) != maxPrealloc {
		t.Fatalf("preallocated %d samples, want %d", len(r.times), maxPrealloc)
	}
	for i := 0; i < 3; i++ {
		if err := r.Step(1e-18); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(r.Result().Times); n != 4 {
		t.Fatalf("recorded %d samples, want 4", n)
	}
}

// TestDenseStampOutsidePatternPanics: once the first pass has frozen
// the dense pattern, a stamp outside it fails loudly, as a diverging
// stamp sequence does on the sparse backend.
func TestDenseStampOutsidePatternPanics(t *testing.T) {
	c := rcDeck(t)
	st := newStampCtx(c, Options{}.Defaults())
	if err := c.newtonSolve(st, Options{}.Defaults()); err != nil {
		t.Fatal(err)
	}
	if st.plu == nil || len(st.pat) == 0 || len(st.pat) == c.Size()*c.Size() {
		t.Fatalf("pattern of %d entries not frozen (n = %d)", len(st.pat), c.Size())
	}
	st.beginStamp()
	st.addA(0, 0, 1) // inside: V1's node row touches R1's conductance
	defer func() {
		if recover() == nil {
			t.Fatal("stamp outside the frozen pattern did not panic")
		}
	}()
	for off, on := range st.onPat {
		if !on {
			st.addA(off/c.Size(), off%c.Size(), 1)
			return
		}
	}
	t.Fatal("no entry outside the pattern")
}
