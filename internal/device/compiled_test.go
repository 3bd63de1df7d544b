package device

import (
	"math"
	"strings"
	"testing"

	"samurai/internal/units"
)

// coreReference is the drain-current model as it stood before
// CompiledMOS: every constant recomputed from MOSParams on each call.
// TestCompiledEvalMatchesReference holds the compiled form to it bit
// for bit.
func coreReference(p MOSParams, vgs, vds float64) (ids, fg, fd, vov float64, sat bool) {
	vth := units.ThermalVoltage(p.TempK)
	s := p.SlopeN * vth
	vov, dvov := softplus(vgs-p.Vt, s)
	k := p.KP()
	clm := 1 + p.Lambda*vds
	if vds < vov {
		core := vov*vds - 0.5*vds*vds
		ids = k * core * clm
		fg = k * vds * clm * dvov
		fd = k*(vov-vds)*clm + k*core*p.Lambda
		return ids, fg, fd, vov, false
	}
	core := 0.5 * vov * vov
	ids = k * core * clm
	fg = k * vov * clm * dvov
	fd = k * core * p.Lambda
	return ids, fg, fd, vov, true
}

func evalNReference(p MOSParams, vgs, vds float64) (ids, gm, gds, vov float64, sat bool) {
	if vds >= 0 {
		return coreReference(p, vgs, vds)
	}
	f, fg, fd, vov, sat := coreReference(p, vgs-vds, -vds)
	return -f, -fg, fg + fd, vov, sat
}

func evalReference(p MOSParams, vgs, vds float64) OpPoint {
	if p.Type == NMOS {
		ids, gm, gds, vov, sat := evalNReference(p, vgs, vds)
		return OpPoint{Ids: ids, Gm: gm, Gds: gds, VovEff: vov, Saturated: sat}
	}
	ids, gm, gds, vov, sat := evalNReference(p, -vgs, -vds)
	return OpPoint{Ids: -ids, Gm: gm, Gds: gds, VovEff: vov, Saturated: sat}
}

func sameOp(a, b OpPoint) bool {
	bits := math.Float64bits
	return bits(a.Ids) == bits(b.Ids) && bits(a.Gm) == bits(b.Gm) && bits(a.Gds) == bits(b.Gds) &&
		bits(a.VovEff) == bits(b.VovEff) && a.Saturated == b.Saturated
}

// TestCompiledEvalMatchesReference compares CompiledMOS.Eval and
// MOSParams.Eval with the reference, Float64bits-equal, for NMOS and
// PMOS over both signs of vds, both softplus tails (|vgs−Vt| beyond 40
// slope units) and ±0 inputs.
func TestCompiledEvalMatchesReference(t *testing.T) {
	negZero := math.Copysign(0, -1)
	biases := []float64{negZero, 0, 1e-300, -1e-300, 0.01, -0.01, 0.15, -0.15, 0.3, -0.3,
		0.45, -0.45, 0.6, -0.6, 0.9, -0.9, 1.2, -1.2, 2.5, -2.5, 4, -4}
	checked := map[string]bool{}
	for _, node := range []string{"90nm", "32nm"} {
		tech := Node(node)
		for _, typ := range []MOSType{NMOS, PMOS} {
			p := NewMOS(tech, typ, 2*tech.Lmin, tech.Lmin)
			p.Vt += 0.013 // off the lattice of round biases
			c := p.Compile()
			for _, vgs := range biases {
				for _, vds := range biases {
					want := evalReference(p, vgs, vds)
					if got := c.Eval(vgs, vds); !sameOp(got, want) {
						t.Fatalf("%s %v Eval(%v, %v): compiled %+v, reference %+v", node, typ, vgs, vds, got, want)
					}
					if got := p.Eval(vgs, vds); !sameOp(got, want) {
						t.Fatalf("%s %v MOSParams.Eval(%v, %v) = %+v, reference %+v", node, typ, vgs, vds, got, want)
					}
					// Record which regimes the grid reached.
					v := vgs
					if typ == PMOS {
						v = -vgs
					}
					z := (v - p.Vt) / (p.SlopeN * units.ThermalVoltage(p.TempK))
					switch {
					case z > 40:
						checked["z>40"] = true
					case z < -40:
						checked["z<-40"] = true
					default:
						checked["softplus"] = true
					}
					if vds < 0 {
						checked["vds<0"] = true
					} else {
						checked["vds>=0"] = true
					}
					if math.Float64bits(vds) == math.Float64bits(negZero) {
						checked["vds=-0"] = true
					}
				}
			}
		}
	}
	for _, k := range []string{"z>40", "z<-40", "softplus", "vds<0", "vds>=0", "vds=-0"} {
		if !checked[k] {
			t.Fatalf("bias grid never reached %s", k)
		}
	}
}

// TestValidateRejectsNonFinite: every field at NaN and at ±Inf is
// rejected, naming the field.
func TestValidateRejectsNonFinite(t *testing.T) {
	fields := map[string]func(*MOSParams) *float64{
		"W":       func(p *MOSParams) *float64 { return &p.W },
		"L":       func(p *MOSParams) *float64 { return &p.L },
		"Vt":      func(p *MOSParams) *float64 { return &p.Vt },
		"Mu":      func(p *MOSParams) *float64 { return &p.Mu },
		"CoxArea": func(p *MOSParams) *float64 { return &p.CoxArea },
		"Lambda":  func(p *MOSParams) *float64 { return &p.Lambda },
		"SlopeN":  func(p *MOSParams) *float64 { return &p.SlopeN },
		"TempK":   func(p *MOSParams) *float64 { return &p.TempK },
	}
	for name, field := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			p := testDev()
			*field(&p) = v
			err := p.Validate()
			if err == nil {
				t.Fatalf("%s = %v accepted", name, v)
			}
			if !strings.Contains(err.Error(), " "+name+" ") {
				t.Fatalf("%s = %v: error %q does not name the field", name, v, err)
			}
		}
	}
}
