package circuit_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"samurai/internal/circuit"
	"samurai/internal/device"
	"samurai/internal/sram"
	"samurai/internal/waveform"
)

// transientDigest hashes every recorded sample of a transient as raw
// float bits: the times, then each node voltage and each source current
// column in name order.
func transientDigest(res *circuit.TransientResult) string {
	h := sha256.New()
	put := func(col []float64) {
		var b [8]byte
		for _, v := range col {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	put(res.Times)
	for _, cols := range []map[string][]float64{res.V, res.SourceI} {
		names := make([]string, 0, len(cols))
		for name := range cols {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			h.Write([]byte(name))
			put(cols[name])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// nonUICTransients are the transients the circuit tests start from a DC
// operating point, the 48-stage RC ladder deck, and two nonlinear ones:
// a loaded NMOS stage with a drain capacitance, and the 90 nm 6T cell
// writing the Fig 8 pattern from its DC point.
func nonUICTransients(t *testing.T) map[string]func() (*circuit.TransientResult, error) {
	tech := device.Node("90nm")
	deck := func(src string) func() (*circuit.TransientResult, error) {
		return func() (*circuit.TransientResult, error) {
			d, err := circuit.ParseDeck(strings.NewReader(src))
			if err != nil {
				return nil, err
			}
			return d.RunTran()
		}
	}
	var ladder strings.Builder
	ladder.WriteString("V1 n0 0 PWL(0 0 1n 1)\n")
	for i := 1; i <= 48; i++ {
		fmt.Fprintf(&ladder, "R%d n%d n%d 1k\nC%d n%d 0 1p\n", i, i-1, i, i, i)
	}
	ladder.WriteString(".tran 50p 10n\n")
	return map[string]func() (*circuit.TransientResult, error){
		"device bias": func() (*circuit.TransientResult, error) {
			c := circuit.New()
			c.AddDCVSource("VDD", "vdd", circuit.Ground, tech.Vdd)
			c.AddDCVSource("VG", "g", circuit.Ground, tech.Vdd)
			c.AddResistor("RD", "vdd", "d", 10e3)
			c.AddMOSFET("M1", "d", "g", circuit.Ground, device.NewMOS(tech, device.NMOS, 2*tech.Lmin, tech.Lmin))
			return c.Transient(circuit.TransientSpec{T0: 0, T1: 1e-9, Dt: 1e-10})
		},
		"source branch": func() (*circuit.TransientResult, error) {
			c := circuit.New()
			c.AddDCVSource("V1", "in", circuit.Ground, 2)
			c.AddResistor("R1", "in", circuit.Ground, 1000)
			return c.Transient(circuit.TransientSpec{T0: 0, T1: 1e-6, Dt: 1e-8})
		},
		"pulse deck":   deck(".tran 10p 10n\nVCK ck 0 PULSE(0 1 1n 100p 100p 2n 4n)\nR1 ck 0 1k\n"),
		"rc ladder 48": deck(ladder.String()),
		"nmos stage": func() (*circuit.TransientResult, error) {
			c := circuit.New()
			gate, err := waveform.New([]float64{0, 1e-9, 1.1e-9}, []float64{0.3, 0.3, tech.Vdd})
			if err != nil {
				return nil, err
			}
			c.AddDCVSource("VDD", "vdd", circuit.Ground, tech.Vdd)
			c.AddVSource("VG", "g", circuit.Ground, gate)
			c.AddResistor("RD", "vdd", "d", 20e3)
			c.AddCapacitor("CD", "d", circuit.Ground, 5e-15)
			c.AddMOSFET("M1", "d", "g", circuit.Ground, device.NewMOS(tech, device.NMOS, 2*tech.Lmin, tech.Lmin))
			return c.Transient(circuit.TransientSpec{T0: 0, T1: 3e-9, Dt: 10e-12,
				Options: circuit.Options{Method: circuit.Trapezoidal}})
		},
		"6T write": func() (*circuit.TransientResult, error) {
			cfg := sram.CellConfig{Tech: tech}.Defaults()
			p := sram.Fig8Pattern(cfg.Vdd)
			wl, bl, blb, err := p.Waveforms()
			if err != nil {
				return nil, err
			}
			cell, err := sram.Build(cfg, wl, bl, blb)
			if err != nil {
				return nil, err
			}
			return cell.Circuit.Transient(circuit.TransientSpec{
				T0: 0, T1: p.Duration(), Dt: p.Timing.Cycle / 400,
				InitialV: cell.InitialConditions(1 - p.Bits[0]),
			})
		},
	}
}

// TestNonUICTransientDigests pins every sample of the transients that
// start from a DC operating point, bit for bit: the operating point's
// gmin ladder and the in-place solve that seeds the branch currents
// must keep producing exactly these solutions.
func TestNonUICTransientDigests(t *testing.T) {
	want := map[string]string{
		"device bias":   "37761a0d2a8f8b88",
		"source branch": "a5cfd7436eb74b5b",
		"pulse deck":    "3eab522dc42b3dbf",
		"rc ladder 48":  "fc694d97a24b6541",
		"nmos stage":    "5666b7610689e5dc",
		"6T write":      "1f0599bd62bb81d8",
	}
	for name, run := range nonUICTransients(t) {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := transientDigest(res); got != want[name] {
			t.Errorf("%s: digest %s, want %s", name, got, want[name])
		}
	}
}
