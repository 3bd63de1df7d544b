package circuit

import (
	"strings"
	"testing"
)

// FuzzParseDeck checks that arbitrary deck text never panics the parser
// — it must either produce a circuit or a descriptive error. Run with
// `go test -fuzz FuzzParseDeck ./internal/circuit` for a real fuzzing
// session; the seed corpus runs on every ordinary `go test`.
func FuzzParseDeck(f *testing.F) {
	seeds := []string{
		"",
		"* only a comment\n",
		"V1 a 0 DC 1\nR1 a 0 1k\n",
		"V1 a 0 PWL(0 0 1n 1)\n.tran 1p 2n uic\n",
		".tech 32nm\nM1 d g 0 NMOS W=64n L=32n\n",
		"V1 a 0 PULSE(0 1 0 1p 1p 1n 2n)\n.tran 1p 4n\n",
		".ic a=1 b=0.5\n",
		"R1 a b -5\n",
		"M1 d g s PMOS W= L=1u\n",
		"V1 a 0 PWL(0 0 0 1)\n", // non-monotone PWL times
		".tran x y\n",
		strings.Repeat("R1 a b 1k\n", 3), // duplicate names
	}
	seeds = append(seeds, nonFiniteDecks...)
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		deck, err := ParseDeck(strings.NewReader(src))
		if err != nil {
			return
		}
		// A successfully parsed deck must be internally consistent:
		// running its DC analysis may fail (singular etc.) but must
		// not panic.
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("DC solve panicked on valid-parsed deck %q: %v", src, r)
			}
		}()
		_, _ = deck.Circuit.OperatingPoint(nil, Options{MaxNewton: 10})
	})
}
