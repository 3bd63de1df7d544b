package circuit_test

import (
	"math"
	"sync"
	"testing"

	"samurai/internal/circuit"
	"samurai/internal/device"
	"samurai/internal/num"
	"samurai/internal/sram"
	"samurai/internal/waveform"
)

// cellCase is one 6T transient the recorded-matrix tests step through.
type cellCase struct {
	name string
	cell *sram.Cell
	p    sram.Pattern
}

// rtnSquare is a synthetic RTN trace: a square wave of the given
// amplitude and period over the pattern, switching every half period.
func rtnSquare(t *testing.T, amp, period, t1 float64) *waveform.PWL {
	t.Helper()
	var ts, vs []float64
	level := 0.0
	for x := 0.0; x < t1; x += period / 2 {
		ts = append(ts, x, x+period/100)
		vs = append(vs, level, amp-level)
		level = amp - level
	}
	w, err := waveform.New(ts, vs)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// cellCases builds the three cells the methodology and the benchmark
// run: the 90 nm cell clean and under RTN, and rare-is's marginal
// 32 nm cell under RTN.
func cellCases(t *testing.T) []cellCase {
	t.Helper()
	build := func(cfg sram.CellConfig) (*sram.Cell, sram.Pattern) {
		cfg = cfg.Defaults()
		p := sram.Fig8Pattern(cfg.Vdd)
		wl, bl, blb, err := p.Waveforms()
		if err != nil {
			t.Fatal(err)
		}
		cell, err := sram.Build(cfg, wl, bl, blb)
		if err != nil {
			t.Fatal(err)
		}
		return cell, p
	}
	withRTN := func(cell *sram.Cell, p sram.Pattern, amp float64) {
		for i, name := range sram.Transistors {
			period := p.Timing.Cycle * float64(3+i) / 2
			if err := cell.SetRTNTrace(name, rtnSquare(t, amp*float64(1+i%3), period, p.Duration())); err != nil {
				t.Fatal(err)
			}
		}
	}
	c90, p90 := build(sram.CellConfig{Tech: device.Node("90nm")})
	r90, q90 := build(sram.CellConfig{Tech: device.Node("90nm")})
	withRTN(r90, q90, 2e-6)
	marginal, err := sram.MarginalCellConfig(sram.CellConfig{Tech: device.Node("32nm")})
	if err != nil {
		t.Fatal(err)
	}
	m32, p32 := build(marginal)
	withRTN(m32, p32, 1e-6)
	return []cellCase{{"90nm clean", c90, p90}, {"90nm RTN", r90, q90}, {"32nm marginal RTN", m32, p32}}
}

// newCellRunner starts the transient Cell.Evaluate runs.
func newCellRunner(t *testing.T, c cellCase) (*circuit.Runner, float64) {
	t.Helper()
	first := 0
	if c.p.Bits[0] == 0 {
		first = 1
	}
	dt := c.p.Timing.Cycle / 400
	r, err := c.cell.Circuit.NewRunner(circuit.TransientSpec{
		T0: 0, T1: c.p.Duration(), Dt: dt, UIC: true,
		InitialV: c.cell.InitialConditions(first),
	})
	if err != nil {
		t.Fatal(err)
	}
	return r, dt
}

func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// TestPatternLURecordedCellMatrices is the LU differential test on the
// matrices the solver really factors: at every step of three 6T
// transients it replays the step's last Newton system through one
// PatternLU and requires the error, pivots, factors and solution to
// match LU.FactorInto + SolveInPlace bit for bit.
func TestPatternLURecordedCellMatrices(t *testing.T) {
	for _, c := range cellCases(t) {
		t.Run(c.name, func(t *testing.T) {
			r, dt := newCellRunner(t, c)
			var pl *num.PatternLU
			steps, replays := 0, 0
			for !r.Done() {
				if err := r.Step(dt); err != nil {
					t.Fatal(err)
				}
				a, b, pat := r.DenseSystem()
				if pl == nil {
					pl = num.NewPatternLU(a.Rows, pat)
				}
				a = a.Clone()
				ref := &num.LU{}
				errRef := ref.FactorInto(a)
				err := pl.FactorInto(a)
				if (err == nil) != (errRef == nil) {
					t.Fatalf("step %d: error %v, dense reference %v", steps, err, errRef)
				}
				if errRef != nil {
					continue
				}
				lu, piv, replayed := pl.FactorsForTest()
				refLU, refPiv := ref.FactorsForTest()
				for k := range refPiv {
					if piv[k] != refPiv[k] {
						t.Fatalf("step %d: pivot[%d] = %d, dense reference %d", steps, k, piv[k], refPiv[k])
					}
				}
				for i, v := range refLU.Data {
					if !sameBits(lu.Data[i], v) {
						t.Fatalf("step %d: factor entry %d = %v, dense reference %v", steps, i, lu.Data[i], v)
					}
				}
				x := append([]float64(nil), b...)
				xRef := append([]float64(nil), b...)
				pl.SolveInPlace(x)
				ref.SolveInPlace(xRef)
				for i := range x {
					if !sameBits(x[i], xRef[i]) {
						t.Fatalf("step %d: x[%d] = %v, dense reference %v", steps, i, x[i], xRef[i])
					}
				}
				steps++
				if replayed {
					replays++
				}
			}
			// The pivot sequence is expected to hold for the whole run:
			// only the first factorisation plans.
			if replays != steps-1 {
				t.Fatalf("%d of %d factorisations replayed the plan, want all but the first", replays, steps)
			}
		})
	}
}

// TestDeviceBiasMatchesSteppedReference pins device bias on demand: for
// all six devices of a 6T cell under RTN, DeviceBias's (vgs, id)
// samples equal, bit for bit, MOSParams.Eval on the node voltages a
// stepped Runner reports at every sample. The six DeviceBias calls run
// concurrently, as samurai.Run issues them.
func TestDeviceBiasMatchesSteppedReference(t *testing.T) {
	c := cellCases(t)[1]
	ckt := c.cell.Circuit
	names := ckt.MOSFETNames()
	type ref struct{ vgs, id []float64 }
	want := map[string]*ref{}
	sampleAll := func(r *circuit.Runner) {
		for _, name := range names {
			d, g, s, err := ckt.MOSFETNodes(name)
			if err != nil {
				t.Fatal(err)
			}
			p, err := ckt.MOSFETParams(name)
			if err != nil {
				t.Fatal(err)
			}
			v := func(node string) float64 {
				x, err := r.NodeVoltage(node)
				if err != nil {
					t.Fatal(err)
				}
				return x
			}
			vd, vg, vs := v(d), v(g), v(s)
			w := want[name]
			w.vgs = append(w.vgs, vg-vs)
			w.id = append(w.id, p.Eval(vg-vs, vd-vs).Ids)
		}
	}
	for _, name := range names {
		want[name] = &ref{}
	}
	r, dt := newCellRunner(t, c)
	sampleAll(r)
	for !r.Done() {
		if err := r.Step(dt); err != nil {
			t.Fatal(err)
		}
		sampleAll(r)
	}
	res := r.Result()
	type got struct{ vgs, id *waveform.PWL }
	gots := make([]got, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			gots[i].vgs, gots[i].id, errs[i] = res.DeviceBias(name)
		}(i, name)
	}
	wg.Wait()
	for i, name := range names {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		w := want[name]
		g := gots[i]
		if len(g.vgs.V) != len(w.vgs) || len(g.id.V) != len(w.id) {
			t.Fatalf("%s: %d/%d samples, want %d", name, len(g.vgs.V), len(g.id.V), len(w.vgs))
		}
		for k := range w.vgs {
			if !sameBits(g.vgs.V[k], w.vgs[k]) || !sameBits(g.id.V[k], w.id[k]) {
				t.Fatalf("%s sample %d: (vgs, id) = (%v, %v), stepped reference (%v, %v)",
					name, k, g.vgs.V[k], g.id.V[k], w.vgs[k], w.id[k])
			}
		}
		for k, tk := range res.Times {
			if !sameBits(g.vgs.T[k], tk) || !sameBits(g.id.T[k], tk) {
				t.Fatalf("%s sample %d: time differs from the recording", name, k)
			}
		}
	}
}
