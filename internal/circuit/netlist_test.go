package circuit

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"samurai/internal/waveform"
)

func TestParseDeckDivider(t *testing.T) {
	deck, err := ParseDeck(strings.NewReader(`
* simple divider
V1 in 0 DC 2
R1 in mid 1k
R2 mid 0 3k
.end
`))
	if err != nil {
		t.Fatal(err)
	}
	op, err := deck.Circuit.OperatingPoint(nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(op["mid"]-1.5) > 1e-6 {
		t.Fatalf("mid = %g", op["mid"])
	}
}

func TestParseDeckEngineeringSuffixes(t *testing.T) {
	deck, err := ParseDeck(strings.NewReader(`
V1 in 0 DC 1
R1 in out 1meg
C1 out 0 2.5f
.tran 1n 10n
`))
	if err != nil {
		t.Fatal(err)
	}
	if !deck.HasTran || deck.Tran.Dt != 1e-9 || deck.Tran.T1 != 10e-9 {
		t.Fatalf("tran parsed wrong: %+v", deck.Tran)
	}
}

func TestParseDeckPWLSource(t *testing.T) {
	deck, err := ParseDeck(strings.NewReader(`
VWL wl 0 PWL(0 0 1n 0 1.1n 1.2 5n 1.2)
R1 wl 0 1k
.tran 10p 5n uic
`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := deck.RunTran()
	if err != nil {
		t.Fatal(err)
	}
	v, _ := res.Voltage("wl")
	if v.Eval(0.5e-9) != 0 {
		t.Fatalf("wl before edge = %g", v.Eval(0.5e-9))
	}
	if math.Abs(v.Eval(3e-9)-1.2) > 1e-9 {
		t.Fatalf("wl after edge = %g", v.Eval(3e-9))
	}
	if !deck.Tran.UIC {
		t.Fatal("uic flag lost")
	}
}

func TestParseDeckPulseSource(t *testing.T) {
	deck, err := ParseDeck(strings.NewReader(`
.tran 10p 10n
VCK ck 0 PULSE(0 1 1n 100p 100p 2n 4n)
R1 ck 0 1k
`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := deck.RunTran()
	if err != nil {
		t.Fatal(err)
	}
	v, _ := res.Voltage("ck")
	// High during [1.1n, 3.1n], low again by 3.2n, next pulse at 5n.
	if v.Eval(2e-9) < 0.99 {
		t.Fatalf("pulse not high at 2n: %g", v.Eval(2e-9))
	}
	if v.Eval(4e-9) > 0.01 {
		t.Fatalf("pulse not low at 4n: %g", v.Eval(4e-9))
	}
	if v.Eval(6.2e-9) < 0.99 {
		t.Fatalf("second pulse missing at 6.2n: %g", v.Eval(6.2e-9))
	}
}

func TestParseDeckInverter(t *testing.T) {
	deck, err := ParseDeck(strings.NewReader(`
.tech 90nm
VDD vdd 0 DC 1.2
VIN in 0 DC 0
MN out in 0 NMOS W=180n L=90n
MP out in vdd PMOS W=360n L=90n
`))
	if err != nil {
		t.Fatal(err)
	}
	op, err := deck.Circuit.OperatingPoint(map[string]float64{"vdd": 1.2, "out": 0.6}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if op["out"] < 1.1 {
		t.Fatalf("inverter out with low input = %g", op["out"])
	}
}

func TestParseDeckMOSVtOverride(t *testing.T) {
	deck, err := ParseDeck(strings.NewReader(`
.tech 90nm
M1 d g 0 NMOS W=180n L=90n VT=0.5
`))
	if err != nil {
		t.Fatal(err)
	}
	p, err := deck.Circuit.MOSFETParams("M1")
	if err != nil {
		t.Fatal(err)
	}
	if p.Vt != 0.5 {
		t.Fatalf("Vt override lost: %g", p.Vt)
	}
}

func TestParseDeckIC(t *testing.T) {
	deck, err := ParseDeck(strings.NewReader(`
R1 a 0 1k
C1 a 0 1p
.ic a=0.7
.tran 1p 1n uic
`))
	if err != nil {
		t.Fatal(err)
	}
	if deck.Tran.InitialV["a"] != 0.7 {
		t.Fatalf("ic lost: %v", deck.Tran.InitialV)
	}
}

// nonFiniteDecks hold an element value that only a non-finite check
// catches: an infinite resistance (an open circuit), a resistance whose
// conductance overflows (a singular matrix at the first solve) and an
// infinite capacitance (a transient that cannot converge).
var nonFiniteDecks = []string{
	"V1 a 0 DC 1\nR1 a b infinity\nR2 b 0 1k\n",
	"V1 a 0 DC 1\nR1 a b 1e-320\nR2 b 0 1k\n",
	"V1 a 0 DC 1\nR1 a b 1k\nC1 b 0 infinity\n.tran 1p 10p\n",
}

func TestParseDeckErrors(t *testing.T) {
	cases := []string{
		"R1 a b",                         // too few fields
		"R1 a b 1x2",                     // bad number
		"Q1 a b c",                       // unknown card
		"V1 a 0 NOISE 3",                 // unknown source kind
		"M1 d g s JFET W=1u L=1u",        // unknown device type
		"M1 d g s NMOS W=1u",             // missing L
		"M1 d g s NMOS W=1u L=1u Z=3",    // unknown parameter
		"V1 a 0 PULSE 0 1 0 1n 1n 1n 1n", // PULSE without .tran
		".ic a",                          // malformed ic
	}
	for _, src := range cases {
		if _, err := ParseDeck(strings.NewReader(src)); err == nil {
			t.Errorf("deck %q accepted", src)
		}
	}
	for _, src := range nonFiniteDecks {
		if _, err := ParseDeck(strings.NewReader(src)); err == nil || !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("deck %q: error %v, want a non-finite value error", src, err)
		}
	}
}

// TestRCLadderTransientWithoutUIC runs a 48-stage RC ladder (50
// unknowns) from its DC operating point. Backward Euler on an RC ladder
// driven by a rising source is monotone, so at every sample the node
// voltages must not increase along the ladder.
func TestRCLadderTransientWithoutUIC(t *testing.T) {
	const stages = 48
	var src strings.Builder
	src.WriteString("V1 n0 0 PWL(0 0 1n 1)\n")
	for i := 1; i <= stages; i++ {
		fmt.Fprintf(&src, "R%d n%d n%d 1k\nC%d n%d 0 1p\n", i, i-1, i, i, i)
	}
	src.WriteString(".tran 50p 10n\n")
	deck, err := ParseDeck(strings.NewReader(src.String()))
	if err != nil {
		t.Fatal(err)
	}
	if n := deck.Circuit.Size(); n != stages+2 {
		t.Fatalf("ladder has %d unknowns, want %d", n, stages+2)
	}
	res, err := deck.Circuit.Transient(deck.Tran)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Times[len(res.Times)-1]; got != deck.Tran.T1 {
		t.Fatalf("transient ended at %g s, want %g s", got, deck.Tran.T1)
	}
	for k := range res.Times {
		for i := 0; i < stages; i++ {
			near, far := res.V[fmt.Sprintf("n%d", i)][k], res.V[fmt.Sprintf("n%d", i+1)][k]
			if far > near {
				t.Fatalf("t=%g s: V(n%d) = %g exceeds V(n%d) = %g", res.Times[k], i+1, far, i, near)
			}
		}
	}
	if v := res.V["n1"][len(res.Times)-1]; !(v > 0.5 && v < 1) {
		t.Fatalf("V(n1) = %g at the end, want a charged but not full first stage", v)
	}
}

func TestDeckMatchesProgrammaticCircuit(t *testing.T) {
	// The same RC netlist built both ways must produce identical
	// transients.
	deck, err := ParseDeck(strings.NewReader(`
V1 in 0 PWL(0 0 1n 1)
R1 in out 1k
C1 out 0 1p
.tran 10p 10n uic
`))
	if err != nil {
		t.Fatal(err)
	}
	dres, err := deck.RunTran()
	if err != nil {
		t.Fatal(err)
	}

	c := New()
	w, _ := waveform.ParsePWLSpec("0 0 1n 1")
	c.AddVSource("V1", "in", Ground, w)
	c.AddResistor("R1", "in", "out", 1000)
	c.AddCapacitor("C1", "out", Ground, 1e-12)
	pres, err := c.Transient(TransientSpec{T0: 0, T1: 10e-9, Dt: 10e-12, UIC: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range dres.Times {
		if math.Abs(dres.V["out"][i]-pres.V["out"][i]) > 1e-12 {
			t.Fatal("deck and programmatic circuits diverge")
		}
	}
}
