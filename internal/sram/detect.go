package sram

import (
	"fmt"
	"math"

	"samurai/internal/circuit"
	"samurai/internal/waveform"
)

// CycleResult records the outcome of one write cycle.
type CycleResult struct {
	Index int
	Bit   int
	// QAtCycleEnd is the storage-node voltage sampled just before the
	// next cycle begins.
	QAtCycleEnd float64
	// Written reports whether Q ended on the correct side of Vdd/2.
	Written bool
	// SettleAfterWL is the time after wordline de-assertion at which Q
	// last entered the 10% band around its target value; 0 when Q was
	// already settled at WL de-assertion, +Inf when it never settled.
	SettleAfterWL float64
	// Slow reports whether settling took more than slowFrac of the
	// post-WL window (the paper's "write slowdown": a read arriving in
	// the interim would observe the wrong value).
	Slow bool
}

// RunResult is the evaluation of a full pattern. Trans holds every
// node voltage and source current of the transient; Trans.DeviceBias
// derives a transistor's (Vgs, Id) from them on demand.
type RunResult struct {
	Pattern  Pattern
	Cycles   []CycleResult
	Q, QB    *waveform.PWL
	Trans    *circuit.TransientResult
	NumError int
	NumSlow  int
}

// FirstError returns the first failed cycle, or nil.
func (r *RunResult) FirstError() *CycleResult {
	for i := range r.Cycles {
		if !r.Cycles[i].Written {
			return &r.Cycles[i]
		}
	}
	return nil
}

// slowFrac: settling later than this fraction of the WL-off → cycle-end
// window counts as a slowdown.
const slowFrac = 0.5

// Evaluate runs the transient and classifies each write cycle. dt is
// the integration step (0 → cycle/400). The cell always starts holding
// the complement of the first bit so every cycle is a real write.
func (c *Cell) Evaluate(p Pattern, dt float64) (*RunResult, error) {
	return c.EvaluateOpts(p, dt, circuit.Options{})
}

// EvaluateOpts is Evaluate with explicit solver options (integration
// scheme, tolerances) — used by the ablation studies.
func (c *Cell) EvaluateOpts(p Pattern, dt float64, opt circuit.Options) (*RunResult, error) {
	if dt == 0 {
		dt = p.Timing.Cycle / 400
	}
	firstBit := 0
	if len(p.Bits) > 0 && p.Bits[0] == 0 {
		firstBit = 1
	}
	res, err := c.Circuit.Transient(circuit.TransientSpec{
		T0: 0, T1: p.Duration(), Dt: dt,
		UIC:      true,
		InitialV: c.InitialConditions(firstBit),
		Options:  opt,
	})
	if err != nil {
		return nil, fmt.Errorf("sram: transient failed: %w", err)
	}
	q, err := res.Voltage(NodeQ)
	if err != nil {
		return nil, err
	}
	qb, err := res.Voltage(NodeQB)
	if err != nil {
		return nil, err
	}
	run := &RunResult{Pattern: p, Q: q, QB: qb, Trans: res}
	run.Cycles = ClassifyCycles(p, q)
	for _, cr := range run.Cycles {
		if !cr.Written {
			run.NumError++
		}
		if cr.Slow {
			run.NumSlow++
		}
	}
	return run, nil
}

// ClassifyCycles evaluates every write cycle of a pattern against the
// recorded Q waveform. It is exported so alternative simulation drivers
// (e.g. the coupled co-simulation) can reuse the detector.
func ClassifyCycles(p Pattern, q *waveform.PWL) []CycleResult {
	out := make([]CycleResult, 0, len(p.Bits))
	for i, bit := range p.Bits {
		out = append(out, classifyCycle(p, i, bit, q))
	}
	return out
}

// CycleMargins returns, per write cycle, the signed margin (in volts)
// of the end-of-cycle storage-node sample to the Vdd/2 decision
// threshold, measured toward the cycle's target: positive means the
// bit landed on the correct side, negative means a write error. The
// sample instant is exactly classifyCycle's (cycle end − 2% of the
// cycle), so sign(margin) agrees with CycleResult.Written except at
// the exact-threshold tie, where classifyCycle resolves bit-0 writes
// in favour of Written and margin is exactly 0.
func CycleMargins(p Pattern, q *waveform.PWL) []float64 {
	out := make([]float64, len(p.Bits))
	vdd := p.Vdd
	for i, bit := range p.Bits {
		cycleEnd := p.CycleStart(i) + p.Timing.Cycle
		qEnd := q.Eval(cycleEnd - p.Timing.Cycle*0.02)
		if bit != 0 {
			out[i] = qEnd - vdd/2
		} else {
			out[i] = vdd/2 - qEnd
		}
	}
	return out
}

// GlitchDepth is the rare-event level function derived from the write
// detector: the deepest normalised excursion toward write failure over
// the pattern's cycles. A cycle ending exactly on target scores 0, one
// ending exactly at the Vdd/2 decision threshold scores exactly 1, and
// a failed write scores > 1 — so the multilevel-splitting stages can
// place their thresholds in (0, 1) and "level ≥ 1" coincides with the
// failure event itself. An empty pattern has no excursion: depth 0.
func GlitchDepth(p Pattern, q *waveform.PWL) float64 {
	depth := 0.0
	for _, m := range CycleMargins(p, q) {
		if d := 1 - 2*m/p.Vdd; d > depth {
			depth = d
		}
	}
	return depth
}

func classifyCycle(p Pattern, i, bit int, q *waveform.PWL) CycleResult {
	vdd := p.Vdd
	target := 0.0
	if bit != 0 {
		target = vdd
	}
	_, wlOff := p.WLWindow(i)
	cycleEnd := p.CycleStart(i) + p.Timing.Cycle
	sampleT := cycleEnd - p.Timing.Cycle*0.02
	qEnd := q.Eval(sampleT)
	written := (bit != 0) == (qEnd > vdd/2)

	cr := CycleResult{Index: i, Bit: bit, QAtCycleEnd: qEnd, Written: written}
	if !written {
		cr.SettleAfterWL = math.Inf(1)
		cr.Slow = true
		return cr
	}
	// Find the last time in (wlOff, cycleEnd] that Q was outside the
	// 10%·Vdd band around the target: settling completes just after.
	band := 0.1 * vdd
	settle := 0.0
	const probes = 200
	for k := 0; k <= probes; k++ {
		t := wlOff + (cycleEnd-wlOff)*float64(k)/probes
		if math.Abs(q.Eval(t)-target) > band {
			settle = t - wlOff
		}
	}
	cr.SettleAfterWL = settle
	cr.Slow = settle > slowFrac*(cycleEnd-wlOff)
	return cr
}
