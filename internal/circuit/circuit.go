// Package circuit is a compact SPICE-class circuit simulator: modified
// nodal analysis (MNA) with Newton–Raphson linearisation, gmin-aided DC
// operating point and implicit (backward-Euler or trapezoidal)
// transient integration.
//
// It is the substrate standing in for SpiceOPUS/BSIM-4 in the SAMURAI
// methodology (see DESIGN.md): the circuits involved — 6T SRAM cells
// with drivers — have ~15 nodes, so a dense LU factorisation per Newton
// iteration is exact; a circuit above MaxUnknowns is refused. Each
// solve context freezes the MNA pattern on its first stamp pass and
// replays the dense elimination over it (num.PatternLU), bit-identical
// to the dense code; MOSFETs are evaluated from compiled parameters
// behind a one-slot memo per device.
// A transient records node voltages and source currents only;
// TransientResult.DeviceBias derives a device's bias on demand.
//
// Supported elements: resistors, capacitors, independent voltage and
// current sources (constant or PWL), and 3-terminal level-1 MOSFETs
// (device.MOSParams). RTN is injected as PWL current sources between
// drain and source, exactly as in Fig 4 of the paper.
package circuit

import (
	"fmt"
	"math"
	"sort"

	"samurai/internal/device"
	"samurai/internal/waveform"
)

// Ground is the reference node name.
const Ground = "0"

// Circuit is a netlist under construction plus the index assignment
// used by the MNA formulation. Node 0 (ground) is not part of the
// unknown vector; voltage-source branch currents are appended after the
// node voltages.
type Circuit struct {
	nodeIndex map[string]int
	nodeNames []string
	elems     []element
	elemNames map[string]bool
	vsrcCount int
	mosfets   []*mosfetElem
	isources  map[string]*isourceElem
	vsources  map[string]*vsourceElem
}

// New returns an empty circuit.
func New() *Circuit {
	return &Circuit{
		nodeIndex: map[string]int{Ground: -1},
		elemNames: map[string]bool{},
		isources:  map[string]*isourceElem{},
		vsources:  map[string]*vsourceElem{},
	}
}

// node interns a node name, returning its unknown index (-1 = ground).
func (c *Circuit) node(name string) int {
	if idx, ok := c.nodeIndex[name]; ok {
		return idx
	}
	idx := len(c.nodeNames)
	c.nodeIndex[name] = idx
	c.nodeNames = append(c.nodeNames, name)
	return idx
}

// Nodes returns the non-ground node names in index order.
func (c *Circuit) Nodes() []string {
	return append([]string(nil), c.nodeNames...)
}

// NodeIndex returns the unknown index of a node name (-1 for ground)
// and whether the node exists.
func (c *Circuit) NodeIndex(name string) (int, bool) {
	idx, ok := c.nodeIndex[name]
	return idx, ok
}

// Size returns the dimension of the MNA system.
func (c *Circuit) Size() int { return len(c.nodeNames) + c.vsrcCount }

func (c *Circuit) register(name string) error {
	if c.elemNames[name] {
		return fmt.Errorf("circuit: duplicate element name %q", name)
	}
	c.elemNames[name] = true
	return nil
}

// AddResistor adds a two-terminal linear resistor. Its resistance and
// its conductance 1/ohms must both be finite: an infinite resistance
// would simulate an open circuit and an infinite conductance a singular
// matrix, far from the card that caused them.
func (c *Circuit) AddResistor(name, n1, n2 string, ohms float64) error {
	g := 1 / ohms
	switch {
	case ohms <= 0:
		return fmt.Errorf("circuit: resistor %q has non-positive value %g", name, ohms)
	case !isFinite(ohms):
		return fmt.Errorf("circuit: resistor %q has non-finite value %g", name, ohms)
	case !isFinite(g):
		return fmt.Errorf("circuit: resistor %q value %g gives non-finite conductance %g", name, ohms, g)
	}
	if err := c.register(name); err != nil {
		return err
	}
	c.elems = append(c.elems, &resistorElem{id: name, a: c.node(n1), b: c.node(n2), g: g})
	return nil
}

// AddCapacitor adds a two-terminal linear capacitor of finite
// capacitance.
func (c *Circuit) AddCapacitor(name, n1, n2 string, farads float64) error {
	if farads <= 0 {
		return fmt.Errorf("circuit: capacitor %q has non-positive value %g", name, farads)
	}
	if !isFinite(farads) {
		return fmt.Errorf("circuit: capacitor %q has non-finite value %g", name, farads)
	}
	if err := c.register(name); err != nil {
		return err
	}
	c.elems = append(c.elems, &capacitorElem{id: name, a: c.node(n1), b: c.node(n2), c: farads})
	return nil
}

// AddVSource adds an independent voltage source; the branch forces
// V(np) − V(nn) = w(t). Its branch current (flowing np→nn inside the
// source) becomes an extra MNA unknown.
func (c *Circuit) AddVSource(name, np, nn string, w *waveform.PWL) error {
	if err := c.register(name); err != nil {
		return err
	}
	e := &vsourceElem{id: name, p: c.node(np), n: c.node(nn), w: w, cur: w.Cursor(), branch: c.vsrcCount}
	c.vsrcCount++
	c.elems = append(c.elems, e)
	c.vsources[name] = e
	return nil
}

// AddDCVSource adds a constant voltage source.
func (c *Circuit) AddDCVSource(name, np, nn string, volts float64) error {
	return c.AddVSource(name, np, nn, waveform.Constant(volts))
}

// AddISource adds an independent current source pushing conventional
// current w(t) from node np, through the source, into node nn (i.e. it
// extracts w(t) from np and injects it at nn).
func (c *Circuit) AddISource(name, np, nn string, w *waveform.PWL) error {
	if err := c.register(name); err != nil {
		return err
	}
	e := &isourceElem{id: name, p: c.node(np), n: c.node(nn), w: w, cur: w.Cursor()}
	c.elems = append(c.elems, e)
	c.isources[name] = e
	return nil
}

// SetISourceWaveform replaces the waveform of an existing current
// source — how the methodology swaps RTN traces in and out between
// passes without rebuilding the netlist.
func (c *Circuit) SetISourceWaveform(name string, w *waveform.PWL) error {
	e, ok := c.isources[name]
	if !ok {
		return fmt.Errorf("circuit: no current source named %q", name)
	}
	e.w = w
	e.cur = w.Cursor()
	return nil
}

// SetVSourceWaveform replaces the waveform of an existing voltage
// source — used by DC sweep drivers (e.g. the SNM butterfly tracer) to
// step a bias without rebuilding the netlist.
func (c *Circuit) SetVSourceWaveform(name string, w *waveform.PWL) error {
	e, ok := c.vsources[name]
	if !ok {
		return fmt.Errorf("circuit: no voltage source named %q", name)
	}
	e.w = w
	e.cur = w.Cursor()
	return nil
}

// AddMOSFET adds a 3-terminal MOSFET (source tied to bulk) with the
// given drain, gate and source nodes.
func (c *Circuit) AddMOSFET(name, d, g, s string, p device.MOSParams) error {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("circuit: mosfet %q: %w", name, err)
	}
	if err := c.register(name); err != nil {
		return err
	}
	e := &mosfetElem{id: name, d: c.node(d), g: c.node(g), s: c.node(s), p: p, dev: p.Compile(), k: len(c.mosfets)}
	c.elems = append(c.elems, e)
	c.mosfets = append(c.mosfets, e)
	return nil
}

// MOSFETNames returns the registered MOSFET element names, sorted.
func (c *Circuit) MOSFETNames() []string {
	names := make([]string, len(c.mosfets))
	for i, m := range c.mosfets {
		names[i] = m.id
	}
	sort.Strings(names)
	return names
}

// MOSFETParams returns the parameter set of a named MOSFET.
func (c *Circuit) MOSFETParams(name string) (device.MOSParams, error) {
	for _, m := range c.mosfets {
		if m.id == name {
			return m.p, nil
		}
	}
	return device.MOSParams{}, fmt.Errorf("circuit: no MOSFET named %q", name)
}

// MOSFETNodes returns the (drain, gate, source) node names of a MOSFET.
func (c *Circuit) MOSFETNodes(name string) (d, g, s string, err error) {
	for _, m := range c.mosfets {
		if m.id == name {
			return c.nodeName(m.d), c.nodeName(m.g), c.nodeName(m.s), nil
		}
	}
	return "", "", "", fmt.Errorf("circuit: no MOSFET named %q", name)
}

func (c *Circuit) nodeName(idx int) string {
	if idx < 0 {
		return Ground
	}
	return c.nodeNames[idx]
}

// isFinite reports whether v is neither NaN nor ±Inf.
func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// voltage reads node voltage idx from solution vector x.
func voltage(x []float64, idx int) float64 {
	if idx < 0 {
		return 0
	}
	return x[idx]
}
