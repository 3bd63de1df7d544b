package rtn

import (
	"math"
	"sort"
	"testing"

	"samurai/internal/device"
	"samurai/internal/markov"
	"samurai/internal/rng"
	"samurai/internal/waveform"
)

// composeReference is the Eq (3) composition that Compose replaced:
// NFilled's sorted step function, walked monotonically by the sample
// sweep, with the bias evaluated and CarrierCount called at every
// sample that has a filled trap.
func composeReference(paths []*markov.Path, dev device.MOSParams, vgs, id *waveform.PWL, t0, t1 float64, n int) *Trace {
	times, counts := NFilled(paths)
	tr := &Trace{T: make([]float64, n), I: make([]float64, n)}
	dt := (t1 - t0) / float64(n-1)
	idx := 0
	for i := 0; i < n; i++ {
		t := t0 + float64(i)*dt
		tr.T[i] = t
		for idx+1 < len(times) && times[idx+1] <= t {
			idx++
		}
		if nf := counts[idx]; nf != 0 {
			tr.I[i] = id.Eval(t) / dev.CarrierCount(vgs.Eval(t)) * float64(nf)
		}
	}
	return tr
}

// edgeEnsemble draws a path ensemble over the sampling grid of n
// instants on [t0, t1] whose transitions sit where composition is
// easiest to get wrong. Every ensemble holds a transition-free path and
// two anchor paths that between them flip at t0, on a sample instant,
// one ulp either side of it, twice at that instant within one path, at
// that instant in two traps, and after t1. Random paths add more of the
// same from a shared pool, with starts before, at and after t0 and
// flips at their own start.
func edgeEnsemble(r *rng.Stream, t0, t1 float64, n int) []*markov.Path {
	dt := (t1 - t0) / float64(n-1)
	at := func(i int) float64 { return t0 + float64(i)*dt }
	down := func(t float64) float64 { return math.Nextafter(t, math.Inf(-1)) }
	up := func(t float64) float64 { return math.Nextafter(t, math.Inf(1)) }
	after := []float64{up(at(n - 1)), t1 + dt, t1 + (t1 - t0)}
	s := at(1 + r.Intn(n-1))
	paths := []*markov.Path{
		pathWith(t0, t1, r.Intn(2) == 0),
		pathWith(t0, after[2], r.Intn(2) == 0, t0, down(s), s, s, up(s), after[r.Intn(len(after))]),
		pathWith(t0, t1, r.Intn(2) == 0, down(s), s),
	}
	pool := append([]float64{t0, up(t0), t1}, after...)
	for k := 0; k < 6; k++ {
		ti := at(r.Intn(n))
		pool = append(pool, down(ti), ti, up(ti), r.Uniform(t0, t1))
	}
	for j := r.Intn(6); j > 0; j-- {
		begin := t0
		switch r.Intn(4) {
		case 0:
			begin = t0 - (t1-t0)*r.Float64()
		case 1:
			begin = pool[r.Intn(len(pool))]
		}
		var flips []float64
		for k := r.Intn(8); k > 0; k-- {
			if t := pool[r.Intn(len(pool))]; t >= begin {
				flips = append(flips, t)
			}
		}
		if r.Intn(4) == 0 {
			flips = append(flips, begin)
		}
		sort.Float64s(flips)
		end := math.Max(t1, begin)
		if len(flips) > 0 {
			end = math.Max(end, flips[len(flips)-1])
		}
		paths = append(paths, pathWith(begin, end, r.Intn(2) == 0, flips...))
	}
	return paths
}

// TestComposeMatchesReferenceBitForBit pins Compose to the sorted-event
// composition on every sample of seeded edge-case ensembles, under a
// flat, a ramped, a creeping and a square-wave gate bias. Each ensemble is composed
// over the grid it was built for and over a window that opens before
// t0, so that samples precede the start of most paths.
func TestComposeMatchesReferenceBitForBit(t *testing.T) {
	dev := testDev()
	for seed := uint64(1); seed <= 300; seed++ {
		r := rng.New(seed)
		n := 2
		if seed%4 != 0 {
			n += r.Intn(400)
		}
		t0 := 0.0
		if seed%2 == 0 {
			t0 = r.Uniform(-1e-6, 1e-6)
		}
		t1 := t0 + r.Uniform(1e-9, 1e-5)
		paths := edgeEnsemble(r, t0, t1, n)
		composeAgainstReference(t, dev, paths, t0, t1, n, seed)
		composeAgainstReference(t, dev, paths, t0-(t1-t0)/3, t1, n, seed)
	}
}

// composeAgainstReference compares Compose with composeReference bit
// for bit on every sample, under each gate-bias shape.
func composeAgainstReference(t *testing.T, dev device.MOSParams, paths []*markov.Path, t0, t1 float64, n int, seed uint64) {
	t.Helper()
	ramp, err := waveform.New([]float64{t0, t1}, []float64{0.2, 1.2})
	if err != nil {
		t.Fatal(err)
	}
	mid := t0 + (t1-t0)/2
	square, err := waveform.New([]float64{t0, mid, math.Nextafter(mid, t1)}, []float64{0, 0, 1.2})
	if err != nil {
		t.Fatal(err)
	}
	// creep moves the bias by a few dozen ulps per sample, so a bias
	// memo keyed on anything looser than the exact bits shows.
	creep, err := waveform.New([]float64{t0, t1}, []float64{0.6, 0.6 + 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	idRamp, err := waveform.New([]float64{t0, t1}, []float64{10e-6, 60e-6})
	if err != nil {
		t.Fatal(err)
	}
	biases := []struct {
		name    string
		vgs, id *waveform.PWL
	}{
		{"flat", waveform.Constant(1.0), waveform.Constant(50e-6)},
		{"ramp", ramp, idRamp},
		{"creep", creep, waveform.Constant(50e-6)},
		{"square", square, waveform.Constant(50e-6)},
	}
	for _, b := range biases {
		got, err := Compose(paths, dev, b.vgs, b.id, t0, t1, n)
		if err != nil {
			t.Fatal(err)
		}
		want := composeReference(paths, dev, b.vgs, b.id, t0, t1, n)
		for i := 0; i < n; i++ {
			if math.Float64bits(got.T[i]) != math.Float64bits(want.T[i]) ||
				math.Float64bits(got.I[i]) != math.Float64bits(want.I[i]) {
				t.Fatalf("seed %d, [%v, %v], %s bias, n=%d, sample %d: got (%v, %v), reference (%v, %v)",
					seed, t0, t1, b.name, n, i, got.T[i], got.I[i], want.T[i], want.I[i])
			}
		}
	}
}

// TestComposeAllocsIndependentOfTransitions pins Compose's allocations:
// the trace and its two sample slices, however many transitions the
// paths carry.
func TestComposeAllocsIndependentOfTransitions(t *testing.T) {
	dev := testDev()
	vgs, id := waveform.Constant(1.2), waveform.Constant(50e-6)
	allocs := func(transitions int) float64 {
		p := markov.NewPath(0, 1, false)
		for k := 1; k <= transitions; k++ {
			p.Transition(float64(k) / float64(transitions+1))
		}
		paths := []*markov.Path{p, pathWith(0, 1, true)}
		return testing.AllocsPerRun(5, func() {
			if _, err := Compose(paths, dev, vgs, id, 0, 1, 1024); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(10), allocs(100000)
	if few != many {
		t.Fatalf("Compose allocates %v times for 10 transitions and %v for 100000", few, many)
	}
}
