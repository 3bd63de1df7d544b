package samurai_test

import (
	"hash/fnv"
	"math"
	"testing"

	samurai "samurai"
	"samurai/internal/device"
	"samurai/internal/sram"
)

// coupledDigest hashes every output of a coupled run bit for bit: the
// Q and QB waveforms, each transistor's trap paths (Times, Filled) and
// RTN trace (T, I), and the verdict counts. Transistors are visited in
// sram.Transistors order and every slice is prefixed by its length.
func coupledDigest(res *samurai.CoupledResult) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	floats := func(xs []float64) {
		word(uint64(len(xs)))
		for _, x := range xs {
			word(math.Float64bits(x))
		}
	}
	floats(res.Q.T)
	floats(res.Q.V)
	floats(res.QB.T)
	floats(res.QB.V)
	for _, name := range sram.Transistors {
		paths := res.Paths[name]
		word(uint64(len(paths)))
		for _, p := range paths {
			floats(p.Times)
			word(uint64(len(p.Filled)))
			for _, f := range p.Filled {
				b := uint64(0)
				if f {
					b = 1
				}
				word(b)
			}
		}
		tr := res.Traces[name]
		floats(tr.T)
		floats(tr.I)
	}
	word(uint64(res.NumError))
	word(uint64(res.NumSlow))
	return h.Sum64()
}

// TestRunCoupledDigests pins RunCoupled's outputs bit for bit on the
// configurations the coupled tests and EXP-X1 use: the trap kernel and
// the circuit step it drives may be restructured, never renumbered.
func TestRunCoupledDigests(t *testing.T) {
	// EXP-X1's first seed: the marginal 32 nm cell at 2/3 Vdd, ×30,
	// with the trap populations pinned from the two-pass run.
	tech := device.Node("32nm")
	vdd := 2.0 / 3.0 * tech.Vdd
	cell, err := sram.MarginalCellConfig(sram.CellConfig{Tech: tech, Vdd: vdd})
	if err != nil {
		t.Fatal(err)
	}
	x1 := samurai.Config{Tech: tech, Cell: cell, Pattern: sram.Fig8Pattern(vdd), Seed: 0, Scale: 30}
	two, err := samurai.Run(x1)
	if err != nil {
		t.Fatal(err)
	}
	x1.Profiles = two.Profiles

	for _, tc := range []struct {
		name string
		cfg  samurai.Config
		want uint64
	}{
		{"seed4-dt20ps", samurai.Config{Seed: 4, Dt: 20e-12}, 0x92d17e4141ae4fd6},
		{"seed2-scale1e4", samurai.Config{Seed: 2, Scale: 1e4, Dt: 20e-12}, 0xad5efee09a789a33},
		{"x1-seed0", x1, 0x8709f19b1c42ffb4},
	} {
		res, err := samurai.RunCoupled(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := coupledDigest(res); got != tc.want {
			t.Errorf("%s: digest %#016x, want %#016x", tc.name, got, tc.want)
		}
	}
}
