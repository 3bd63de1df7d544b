package device

import (
	"fmt"
	"math"

	"samurai/internal/units"
)

// MOSType distinguishes NMOS from PMOS devices.
type MOSType int

const (
	// NMOS is an n-channel device (positive Vt, source at the lower
	// potential).
	NMOS MOSType = iota
	// PMOS is a p-channel device; the model mirrors the NMOS equations.
	PMOS
)

// String names the device type.
func (t MOSType) String() string {
	if t == PMOS {
		return "PMOS"
	}
	return "NMOS"
}

// MOSParams is a level-1 (square-law) MOSFET parameter set with a
// smooth subthreshold tail. Source and bulk are tied (3-terminal
// model), which is exact for the 6T SRAM cell topologies simulated
// here.
type MOSParams struct {
	Type MOSType
	// W and L are the drawn channel width and length, m.
	W, L float64
	// Vt is the threshold voltage magnitude, V (positive for both
	// types; the sign convention is handled by the model).
	Vt float64
	// Mu is the effective mobility, m²/(V·s).
	Mu float64
	// CoxArea is the oxide capacitance per area, F/m².
	CoxArea float64
	// Lambda is the channel-length modulation coefficient, 1/V.
	Lambda float64
	// SlopeN is the subthreshold slope ideality factor (~1.3–1.7).
	SlopeN float64
	// TempK is the device temperature, K.
	TempK float64
}

// NewMOS builds a parameter set for the given technology, type and
// geometry with default second-order coefficients.
func NewMOS(t Technology, typ MOSType, w, l float64) MOSParams {
	vt := t.Vtn
	mu := t.MuN
	if typ == PMOS {
		vt = t.Vtp
		mu = t.MuP
	}
	return MOSParams{
		Type:    typ,
		W:       w,
		L:       l,
		Vt:      vt,
		Mu:      mu,
		CoxArea: t.CoxArea,
		Lambda:  0.15,
		SlopeN:  1.5,
		TempK:   units.RoomTemperature,
	}
}

// Validate checks the parameter set for physical plausibility. Every
// field must be finite: NaN passes the magnitude checks below (each
// comparison is false), and an infinite Vt or Lambda would pass as a
// device that never conducts.
func (p MOSParams) Validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"W", p.W}, {"L", p.L}, {"Vt", p.Vt}, {"Mu", p.Mu},
		{"CoxArea", p.CoxArea}, {"Lambda", p.Lambda}, {"SlopeN", p.SlopeN}, {"TempK", p.TempK},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("device: non-finite %s %g", f.name, f.v)
		}
	}
	switch {
	case p.W <= 0 || p.L <= 0:
		return fmt.Errorf("device: non-positive geometry W=%g L=%g", p.W, p.L)
	case p.Mu <= 0:
		return fmt.Errorf("device: non-positive mobility %g", p.Mu)
	case p.CoxArea <= 0:
		return fmt.Errorf("device: non-positive Cox %g", p.CoxArea)
	case p.SlopeN < 1:
		return fmt.Errorf("device: subthreshold slope factor %g < 1", p.SlopeN)
	case p.TempK <= 0:
		return fmt.Errorf("device: non-positive temperature %g", p.TempK)
	}
	return nil
}

// KP returns the transconductance parameter µ·Cox·W/L, A/V².
func (p MOSParams) KP() float64 {
	return p.Mu * p.CoxArea * p.W / p.L
}

// softplus returns s·ln(1+exp(x/s)) and its derivative (the logistic
// sigmoid). It provides the smooth overdrive used for the subthreshold
// transition; for x ≫ s it converges to x, for x ≪ −s it decays
// exponentially with the subthreshold slope.
func softplus(x, s float64) (val, deriv float64) {
	z := x / s
	switch {
	case z > 40:
		return x, 1
	case z < -40:
		e := math.Exp(z)
		return s * e, e
	}
	e := math.Exp(z)
	return s * math.Log1p(e), e / (1 + e)
}

// OpPoint is the DC evaluation of the device at a bias point.
type OpPoint struct {
	// Ids is the conventional current entering the drain terminal and
	// leaving the source terminal, A. A conducting NMOS has Ids > 0
	// when Vds > 0; a conducting PMOS (Vds < 0) has Ids < 0.
	Ids float64
	// Gm is ∂Ids/∂Vgs and Gds is ∂Ids/∂Vds, both in siemens.
	Gm, Gds float64
	// VovEff is the smoothed gate overdrive in the frame the core
	// model evaluated (always positive), V. Used by CarrierDensity.
	VovEff float64
	// Saturated reports whether the device operated beyond pinch-off.
	Saturated bool
}

// CompiledMOS is a MOSParams with the bias-independent constants of
// the drain-current model folded in once: the softplus scale
// SlopeN·kT/q and the transconductance KP, which Eval would otherwise
// recompute (two divisions) on every call. The circuit simulator
// compiles each MOSFET when it is added and evaluates the compiled form
// at every stamp. Eval is bit-identical to MOSParams.Eval at every bias
// (MOSParams.Eval delegates here, so one implementation remains).
type CompiledMOS struct {
	typ    MOSType
	vt     float64
	lambda float64
	s      float64 // SlopeN·kT/q, the subthreshold softplus scale
	k      float64 // KP() = µ·Cox·W/L
}

// Compile folds the per-call constants of Eval with the same
// expressions Eval evaluates, so the compiled form rounds identically.
func (p MOSParams) Compile() CompiledMOS {
	return CompiledMOS{
		typ:    p.Type,
		vt:     p.Vt,
		lambda: p.Lambda,
		s:      p.SlopeN * units.ThermalVoltage(p.TempK),
		k:      p.KP(),
	}
}

// core evaluates the positive-frame NMOS equations for vds >= 0.
// Returns current, ∂/∂vgs, ∂/∂vds, smoothed overdrive and saturation.
func (c *CompiledMOS) core(vgs, vds float64) (ids, fg, fd, vov float64, sat bool) {
	vov, dvov := softplus(vgs-c.vt, c.s)
	k := c.k
	clm := 1 + c.lambda*vds
	if vds < vov {
		// Triode. I = k·(vov·vds − vds²/2)·(1+λ·vds)
		core := vov*vds - 0.5*vds*vds
		ids = k * core * clm
		fg = k * vds * clm * dvov
		fd = k*(vov-vds)*clm + k*core*c.lambda
		return ids, fg, fd, vov, false
	}
	// Saturation. I = (k/2)·vov²·(1+λ·vds)
	core := 0.5 * vov * vov
	ids = k * core * clm
	fg = k * vov * clm * dvov
	fd = k * core * c.lambda
	return ids, fg, fd, vov, true
}

// evalN evaluates the NMOS equations for any vds sign, using the
// source/drain symmetry I(vgs, vds) = −I(vgs−vds, −vds).
func (c *CompiledMOS) evalN(vgs, vds float64) (ids, gm, gds, vov float64, sat bool) {
	if vds >= 0 {
		return c.core(vgs, vds)
	}
	// Mirrored frame: I = −f(vgs−vds, −vds).
	// ∂I/∂vgs = −f_g
	// ∂I/∂vds = −(f_g·∂(vgs−vds)/∂vds + f_d·∂(−vds)/∂vds) = f_g + f_d
	f, fg, fd, vov, sat := c.core(vgs-vds, -vds)
	return -f, -fg, fg + fd, vov, sat
}

// Eval computes the channel current and small-signal conductances at
// gate-source voltage vgs and drain-source voltage vds.
func (c *CompiledMOS) Eval(vgs, vds float64) OpPoint {
	if c.typ == NMOS {
		ids, gm, gds, vov, sat := c.evalN(vgs, vds)
		return OpPoint{Ids: ids, Gm: gm, Gds: gds, VovEff: vov, Saturated: sat}
	}
	// PMOS: I(vgs, vds) = −I_N(−vgs, −vds).
	// ∂I/∂vgs = −(−1)·f_g = f_g ; ∂I/∂vds = f_d.
	ids, gm, gds, vov, sat := c.evalN(-vgs, -vds)
	return OpPoint{Ids: -ids, Gm: gm, Gds: gds, VovEff: vov, Saturated: sat}
}

// Eval computes the channel current and small-signal conductances at
// gate-source voltage vgs and drain-source voltage vds. It compiles
// the parameter set on every call; hot loops hold a CompiledMOS.
func (p MOSParams) Eval(vgs, vds float64) OpPoint {
	c := p.Compile()
	return c.Eval(vgs, vds)
}

// CarrierDensity returns the inversion-layer carrier number density N
// (carriers per m²) at gate overdrive conditions implied by vgs, using
// the charge-sheet approximation N = Cox·Vov_eff/q. The smoothed
// overdrive keeps N positive (exponentially small in subthreshold), so
// Eq (3) divides by a well-defined quantity at every bias.
func (p MOSParams) CarrierDensity(vgs float64) float64 {
	vth := units.ThermalVoltage(p.TempK)
	s := p.SlopeN * vth
	v := vgs
	if p.Type == PMOS {
		v = -vgs
	}
	vov, _ := softplus(v-p.Vt, s)
	// Floor the overdrive at one thermal voltage worth of charge so
	// the Eq (3) amplitude stays finite when the channel is off.
	if vov < vth {
		vov = vth
	}
	return p.CoxArea * vov / units.ElectronCharge
}

// CarrierCount returns W·L·N, the total inversion-layer carrier count
// entering Eq (3)'s denominator.
func (p MOSParams) CarrierCount(vgs float64) float64 {
	return p.W * p.L * p.CarrierDensity(vgs)
}

// GateCap returns the total intrinsic gate capacitance Cox·W·L, F.
func (p MOSParams) GateCap() float64 {
	return p.CoxArea * p.W * p.L
}

// ThermalNoisePSD returns the (one-sided) channel thermal-noise current
// spectral density S = (8/3)·k·T·g_m used by the paper's Fig 7 plots,
// in A²/Hz, at the given bias.
func (p MOSParams) ThermalNoisePSD(vgs, vds float64) float64 {
	op := p.Eval(vgs, vds)
	gm := math.Abs(op.Gm)
	return 8.0 / 3.0 * units.BoltzmannJPerK * p.TempK * gm
}
