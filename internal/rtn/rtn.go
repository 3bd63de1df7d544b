// Package rtn turns trap occupancy paths into RTN current traces using
// the paper's Eq (3):
//
//	I_RTN(t) = I_d(t) / (W·L·N(t)) · N_filled(t)
//
// where N(t) is the inversion-layer carrier number density at the
// instantaneous bias and N_filled(t) the number of filled traps.
package rtn

import (
	"errors"
	"math"
	"sort"

	"samurai/internal/device"
	"samurai/internal/markov"
	"samurai/internal/obs"
	"samurai/internal/units"
	"samurai/internal/waveform"
)

// Trace-composition instrumentation (Eq 3). Published once per Compose
// call; see internal/obs for the determinism guarantee.
var (
	mTraces = obs.GetCounter("samurai_rtn_traces_total",
		"RTN current traces composed via Eq (3)")
	mTraceSamples = obs.GetCounter("samurai_rtn_trace_samples_total",
		"samples evaluated across all composed traces")
	mTraceTransitions = obs.GetCounter("samurai_rtn_trace_transitions_total",
		"trap transitions aggregated into composed traces")
)

// Trace is a sampled RTN current waveform.
type Trace struct {
	T []float64 // sample instants, s
	I []float64 // RTN current, A
}

// NFilled aggregates trap paths into the piecewise-constant count of
// filled traps. The returned times/counts satisfy: counts[i] holds on
// [times[i], times[i+1]), and times[0] is the earliest path start (0
// when there are no paths). Compose does not build it; it is the
// reference step function that CountAt evaluates.
func NFilled(paths []*markov.Path) (times []float64, counts []int) {
	type event struct {
		t     float64
		delta int
	}
	var events []event
	n0 := 0
	for _, p := range paths {
		if p.Filled[0] {
			n0++
		}
		for i := 1; i < len(p.Times); i++ {
			d := -1
			if p.Filled[i] {
				d = +1
			}
			events = append(events, event{p.Times[i], d})
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].t < events[j].t })
	times = append(times, earliestBegin(paths))
	counts = append(counts, n0)
	cur := n0
	for _, e := range events {
		cur += e.delta
		//lint:ignore floateq merges events at bitwise-identical stored times, not nearby ones
		if times[len(times)-1] == e.t {
			counts[len(counts)-1] = cur
			continue
		}
		times = append(times, e.t)
		counts = append(counts, cur)
	}
	return
}

// CountAt evaluates an NFilled step function at time t.
func CountAt(times []float64, counts []int, t float64) int {
	if len(times) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(times, t)
	//lint:ignore floateq exact hit on a stored step-function breakpoint located by SearchFloat64s
	if i < len(times) && times[i] == t {
		return counts[i]
	}
	if i == 0 {
		return counts[0]
	}
	return counts[i-1]
}

// earliestBegin returns the earliest path start, or 0 without paths.
func earliestBegin(paths []*markov.Path) float64 {
	start := 0.0
	for k, p := range paths {
		if k == 0 || p.Begin() < start {
			start = p.Begin()
		}
	}
	return start
}

// Compose builds the sampled I_RTN trace per Eq (3) for a device with
// trap paths, gate-bias waveform vgs and drain-current waveform id,
// sampled at the n instants t_i = t0 + float64(i)·dt, dt = (t1−t0)/(n−1).
//
// Sample instant rule: sample i counts every path's initial state and
// every transition at τ ≤ t_i, compared against t_i as that expression
// rounds it. Samples before the earliest path start take the count at
// that start. The filled count at t_i is therefore exactly
// CountAt(NFilled(paths), t_i), without building NFilled: each
// transition is added into a per-sample difference array at the first
// sample that sees it, and one prefix sum over the samples recovers
// N_filled, so the cost is O(E + n) for E transitions.
func Compose(paths []*markov.Path, dev device.MOSParams, vgs, id *waveform.PWL, t0, t1 float64, n int) (*Trace, error) {
	if n < 2 {
		return nil, errors.New("rtn: need at least two samples")
	}
	if t1 <= t0 {
		return nil, errors.New("rtn: empty time interval")
	}
	tr := &Trace{T: make([]float64, n), I: make([]float64, n)}
	dt := (t1 - t0) / float64(n-1)
	for i := range tr.T {
		tr.T[i] = t0 + float64(i)*dt
	}
	// Until the sweep below reaches sample i, tr.I[i] is the difference
	// array: the net change in filled traps from the transitions that
	// sample i is the first to see. Its entries are integers far below
	// 2⁵³, so float64 holds them exactly.
	start := earliestBegin(paths)
	filled, transitions := 0, 0
	for _, p := range paths {
		if p.Filled[0] {
			filled++
		}
		transitions += len(p.Times) - 1
		for k := 1; k < len(p.Times); k++ {
			i := 0
			if p.Times[k] > start {
				i = firstSampleAtOrAfter(tr.T, t0, dt, p.Times[k])
			}
			if i == n {
				continue
			}
			if p.Filled[k] {
				tr.I[i]++
			} else {
				tr.I[i]--
			}
		}
	}
	mTraces.Inc()
	mTraceSamples.Add(int64(n))
	mTraceTransitions.Add(int64(transitions))
	// The sample sweep is monotone, so cursors make each bias lookup
	// O(1) amortised instead of a binary search per sample.
	vgsCur := vgs.Cursor()
	idCur := id.Cursor()
	// CarrierCount is a pure function of the gate bias, so a sample
	// whose bias repeats the previous evaluated one bit for bit reuses
	// its W·L·N(t): on a piecewise-constant bias almost every sample does.
	var vPrev, carriers float64
	memo := false
	for i, t := range tr.T {
		filled += int(tr.I[i])
		if filled == 0 {
			tr.I[i] = 0
			continue
		}
		v := vgsCur.Eval(t)
		if !memo || math.Float64bits(v) != math.Float64bits(vPrev) {
			vPrev, carriers, memo = v, dev.CarrierCount(v), true
		}
		tr.I[i] = idCur.Eval(t) / carriers * float64(filled)
	}
	return tr, nil
}

// firstSampleAtOrAfter returns the first i with ts[i] ≥ tau, or
// len(ts) if there is none, for the nondecreasing sample instants
// ts[i] = t0 + float64(i)·dt. The quotient (tau−t0)/dt only estimates
// i; rounding can put it a step or two off, so the walks settle it
// against the sample instants themselves.
func firstSampleAtOrAfter(ts []float64, t0, dt, tau float64) int {
	last := len(ts) - 1
	if !(tau > ts[0]) {
		return 0
	}
	if tau > ts[last] {
		return last + 1
	}
	// Here ts[0] < tau ≤ ts[last], so both walks stop inside [1, last].
	i := min(max(int(math.Ceil((tau-t0)/dt)), 1), last)
	for ts[i-1] >= tau {
		i--
	}
	for ts[i] < tau {
		i++
	}
	return i
}

// ComposeConstant is Compose for constant bias: vgs and id fixed. It is
// the form used by the Fig 7 validation experiments.
func ComposeConstant(paths []*markov.Path, dev device.MOSParams, vgs, id, t0, t1 float64, n int) (*Trace, error) {
	return Compose(paths, dev, waveform.Constant(vgs), waveform.Constant(id), t0, t1, n)
}

// Scale multiplies the trace amplitude by k in place and returns the
// trace. The paper scales I_RTN by ×30 to make the (rare) write error
// observable — the "accelerated RTN testing" device of §IV-B.
func (tr *Trace) Scale(k float64) *Trace {
	for i := range tr.I {
		tr.I[i] *= k
	}
	return tr
}

// PWL converts the trace to a piecewise-linear waveform for injection
// into the circuit simulator as a current source. The waveform owns
// copies of the samples, so later in-place edits of the trace (e.g.
// Scale) do not retroactively change already-exported waveforms.
func (tr *Trace) PWL() (*waveform.PWL, error) {
	return waveform.New(
		append([]float64(nil), tr.T...),
		append([]float64(nil), tr.I...))
}

// Mean returns the time-average current of the trace.
func (tr *Trace) Mean() float64 {
	s := 0.0
	for _, v := range tr.I {
		s += v
	}
	if len(tr.I) == 0 {
		return 0
	}
	return s / float64(len(tr.I))
}

// MaxAbs returns the largest |I| in the trace.
func (tr *Trace) MaxAbs() float64 {
	m := 0.0
	for _, v := range tr.I {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// StepAmplitude returns the Eq (3) single-trap current step
// ΔI = I_d/(W·L·N) at the given constant bias — the amplitude of one
// trap's telegraph signal.
func StepAmplitude(dev device.MOSParams, vgs, id float64) float64 {
	return id / dev.CarrierCount(vgs)
}

// DeltaVt returns the threshold-voltage shift equivalent of one trapped
// electron, q/(Cox·W·L) — the quantity the V_dd margin model of Fig 2
// accumulates across traps.
func DeltaVt(dev device.MOSParams) float64 {
	return units.ElectronCharge / dev.GateCap()
}
