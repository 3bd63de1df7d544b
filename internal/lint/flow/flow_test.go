package flow

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"samurai/internal/lint"
)

// rngStub is a minimal samurai/internal/rng so fixtures exercise the
// real sink names (rng.New, Split, SplitInto) without the real module.
const rngStub = `package rng

// Stream is a deterministic random stream (fixture stub).
type Stream struct{ s uint64 }

// New returns a stream seeded with seed.
func New(seed uint64) *Stream { return &Stream{s: seed} }

// NewSeq returns a stream for a (seed, sequence) pair.
func NewSeq(seed, seq uint64) *Stream { return &Stream{s: seed ^ seq} }

// Split derives the child stream with the given id.
func (s *Stream) Split(id uint64) *Stream { return &Stream{s: s.s + id} }

// SplitInto derives the child stream in place.
func (s *Stream) SplitInto(id uint64, dst *Stream) { dst.s = s.s + id }

// Uint64 draws the next value.
func (s *Stream) Uint64() uint64 { s.s++; return s.s }
`

// load writes the fixture files into a temp module and loads it.
func load(t *testing.T, files map[string]string) []*lint.Package {
	t.Helper()
	dir := t.TempDir()
	if _, ok := files["go.mod"]; !ok {
		files["go.mod"] = "module samurai\n\ngo 1.22\n"
	}
	for name, src := range files {
		full := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := lint.LoadModule(dir)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	return pkgs
}

// run applies one flow rule to a fixture module.
func run(t *testing.T, files map[string]string, rule lint.Rule) []lint.Diagnostic {
	t.Helper()
	return lint.Run(load(t, files), []lint.Rule{rule})
}

// wantN asserts the diagnostic count, logging what was found on mismatch.
func wantN(t *testing.T, got []lint.Diagnostic, want int) {
	t.Helper()
	if len(got) != want {
		for _, d := range got {
			t.Logf("  %s", d)
		}
		t.Fatalf("got %d finding(s), want %d", len(got), want)
	}
}

// wantChain asserts some finding's message mentions every marker, in
// order — the "correct call chain" acceptance check.
func wantChain(t *testing.T, got []lint.Diagnostic, markers ...string) {
	t.Helper()
	if len(got) == 0 {
		t.Fatal("no findings")
	}
next:
	for _, d := range got {
		at := 0
		for _, m := range markers {
			i := strings.Index(d.Message[at:], m)
			if i < 0 {
				continue next
			}
			at += i + len(m)
		}
		return
	}
	for _, d := range got {
		t.Logf("  %s", d)
	}
	t.Fatalf("no finding carries the chain %v", markers)
}

func TestGraphResolvesStaticAndInterfaceCalls(t *testing.T) {
	pkgs := load(t, map[string]string{
		"a/a.go": `package a

// Runner is implemented by Fast below.
type Runner interface{ Run() int }

// Fast is the sole module implementation.
type Fast struct{}

// Run satisfies Runner.
func (Fast) Run() int { return 1 }

// helper is statically called by Drive.
func helper() int { return 2 }

// Drive calls helper statically and r.Run through the interface.
func Drive(r Runner) int { return helper() + r.Run() }
`,
	})
	g := BuildGraph(pkgs)
	var drive *Node
	for _, n := range g.Sorted {
		if n.Fn.Name() == "Drive" {
			drive = n
		}
	}
	if drive == nil {
		t.Fatal("Drive not in graph")
	}
	var callees []string
	for _, c := range drive.Calls {
		for _, fn := range c.Callees {
			callees = append(callees, fn.FullName())
		}
	}
	joined := strings.Join(callees, " ")
	if !strings.Contains(joined, "samurai/a.helper") {
		t.Fatalf("static call missing: %v", callees)
	}
	if !strings.Contains(joined, "(samurai/a.Fast).Run") {
		t.Fatalf("CHA candidate missing: %v", callees)
	}
}

func TestGraphDumpIsDeterministic(t *testing.T) {
	pkgs := load(t, map[string]string{
		"a/a.go": `package a

// B is called by A.
func B() int { return 1 }

// A calls B.
func A() int { return B() }
`,
	})
	g := BuildGraph(pkgs)
	var d1, d2 strings.Builder
	if err := g.Dump(&d1); err != nil {
		t.Fatal(err)
	}
	if err := g.Dump(&d2); err != nil {
		t.Fatal(err)
	}
	if d1.String() != d2.String() {
		t.Fatal("two dumps of the same graph differ")
	}
	if !strings.Contains(d1.String(), "samurai/a.A") || !strings.Contains(d1.String(), "-> samurai/a.B") {
		t.Fatalf("dump missing expected edge:\n%s", d1.String())
	}
}

// montecarloFixture builds a miniature seeded Monte Carlo path using
// the repo's real import paths, with an optional injected wall-clock
// perturbation on the per-cell result.
func montecarloFixture(inject string) map[string]string {
	return map[string]string{
		"internal/rng/rng.go": rngStub,
		"internal/montecarlo/montecarlo.go": `package montecarlo

import (
	` + maybeTimeImport(inject) + `
	"samurai/internal/rng"
)

// ArrayConfig seeds the sweep.
type ArrayConfig struct {
	Seed  uint64
	Cells int
}

// CellOutcome is one cell's result.
type CellOutcome struct {
	Index int
	Value float64
}

// simulateCell runs one seeded cell.
func simulateCell(cfg ArrayConfig, i int, r *rng.Stream) CellOutcome {
	v := float64(r.Uint64())
	` + inject + `
	return CellOutcome{Index: i, Value: v}
}

// RunArrayCtx runs every cell from the job seed.
func RunArrayCtx(cfg ArrayConfig) []CellOutcome {
	root := rng.New(cfg.Seed)
	out := make([]CellOutcome, cfg.Cells)
	for i := 0; i < cfg.Cells; i++ {
		out[i] = simulateCell(cfg, i, root.Split(uint64(i)))
	}
	return out
}
`,
	}
}

func maybeTimeImport(inject string) string {
	if strings.Contains(inject, "time.") {
		return `"time"`
	}
	return ""
}

func TestDetflowCatchesInjectedTimeNowOnMonteCarloResultPath(t *testing.T) {
	got := run(t, montecarloFixture(`v += float64(time.Now().Nanosecond()) * 1e-18`), detflowRule)
	// The perturbation poisons both return sinks on the path: the
	// per-cell outcome and the array result built from it.
	wantN(t, got, 2)
	wantChain(t, got, "per-cell Monte Carlo outcome", "wall-clock time", "simulateCell")
	wantChain(t, got, "Monte Carlo array result", "wall-clock time", "simulateCell", "RunArrayCtx")
}

func TestDetflowCleanMonteCarloPathPasses(t *testing.T) {
	wantN(t, run(t, montecarloFixture(""), detflowRule), 0)
}

func TestDetflowInterproceduralChainToSeedSink(t *testing.T) {
	got := run(t, map[string]string{
		"internal/rng/rng.go": rngStub,
		"a/a.go": `package a

import (
	"time"
	"samurai/internal/rng"
)

// badSeed derives a seed from the wall clock.
func badSeed() uint64 { return uint64(time.Now().UnixNano()) }

// Setup seeds a stream through the tainted helper.
func Setup() *rng.Stream { return rng.New(badSeed()) }
`,
	}, detflowRule)
	wantChain(t, got, "rng stream seeding", "wall-clock time", "badSeed", "rng stream seeding")
}

func TestDetflowNondetOkSuppresses(t *testing.T) {
	got := run(t, montecarloFixture(
		`//lint:nondet-ok fixture documents an intentional wall-clock perturbation
	v += float64(time.Now().Nanosecond()) * 1e-18`), detflowRule)
	wantN(t, got, 0)
}

func TestDetflowGoroutineCapturedWrite(t *testing.T) {
	files := map[string]string{
		"internal/rng/rng.go": rngStub,
		"a/a.go": `package a

import "samurai/internal/rng"

// Seed races a captured counter across goroutines and seeds with it.
func Seed(done chan struct{}) *rng.Stream {
	var n uint64
	for i := 0; i < 4; i++ {
		go func() {
			n++
			done <- struct{}{}
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	return rng.New(n)
}
`,
	}
	got := run(t, files, detflowRule)
	wantChain(t, got, "rng stream seeding", "unsynchronised goroutine write")
}

func TestDetflowSelectWinner(t *testing.T) {
	files := map[string]string{
		"internal/rng/rng.go": rngStub,
		"a/a.go": `package a

import "samurai/internal/rng"

// Seed races two producers; the select winner decides the seed.
func Seed(a, b chan uint64) *rng.Stream {
	var s uint64
	select {
	case v := <-a:
		s = v
	case v := <-b:
		s = v
	}
	return rng.New(s)
}
`,
	}
	got := run(t, files, detflowRule)
	wantChain(t, got, "rng stream seeding", "select winner")
}

func TestMaporderFlagsAppendInMapRange(t *testing.T) {
	files := map[string]string{
		"a/a.go": `package a

// Names collects keys in visit order — nondeterministic.
func Names(m map[string]int) []string {
	var names []string
	for k := range m {
		names = append(names, k)
	}
	return names
}
`,
	}
	got := run(t, files, maporderRule)
	wantN(t, got, 1)
	if !strings.Contains(got[0].Message, "names") {
		t.Fatalf("finding does not name the output: %s", got[0].Message)
	}
}

func TestMaporderSortedAfterIsClean(t *testing.T) {
	files := map[string]string{
		"a/a.go": `package a

import "sort"

// Names collects keys then sorts — the canonical deterministic idiom.
func Names(m map[string]int) []string {
	var names []string
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
`,
	}
	wantN(t, run(t, files, maporderRule), 0)
}

func TestMaporderKeyedWriteAndIntSumAreClean(t *testing.T) {
	files := map[string]string{
		"a/a.go": `package a

// Invert writes keyed output and sums ints: both order-independent.
func Invert(m map[string]int) (map[int]string, int) {
	out := map[int]string{}
	sum := 0
	for k, v := range m {
		out[v] = k
		sum += v
	}
	return out, sum
}
`,
	}
	wantN(t, run(t, files, maporderRule), 0)
}

func TestMaporderFloatAccumulationFlagged(t *testing.T) {
	files := map[string]string{
		"a/a.go": `package a

// Total sums floats in map order — rounding differs per visit order.
func Total(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m {
		total += v
	}
	return total
}
`,
	}
	got := run(t, files, maporderRule)
	wantN(t, got, 1)
	if !strings.Contains(got[0].Message, "total") {
		t.Fatalf("finding does not name the accumulator: %s", got[0].Message)
	}
}

func TestCtxflowFlagsDroppedContext(t *testing.T) {
	files := map[string]string{
		"a/a.go": `package a

import "context"

// inner accepts a context.
func inner(ctx context.Context) {}

// Outer holds a context but hands inner a fresh one.
func Outer(ctx context.Context) {
	inner(context.Background())
}
`,
	}
	got := run(t, files, ctxflowRule)
	wantN(t, got, 1)
	if !strings.Contains(got[0].Message, "Outer") || !strings.Contains(got[0].Message, "inner") {
		t.Fatalf("finding does not name caller and callee: %s", got[0].Message)
	}
}

func TestCtxflowPassedAndDerivedContextsAreClean(t *testing.T) {
	files := map[string]string{
		"a/a.go": `package a

import (
	"context"
	"time"
)

// inner accepts a context.
func inner(ctx context.Context) {}

// Direct forwards the incoming context.
func Direct(ctx context.Context) { inner(ctx) }

// Derived forwards a context derived from the incoming one.
func Derived(ctx context.Context) {
	c2, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	inner(c2)
}
`,
	}
	wantN(t, run(t, files, ctxflowRule), 0)
}

func TestSeedpurityFlagsConstantSeedWithChain(t *testing.T) {
	files := map[string]string{
		"internal/rng/rng.go": rngStub,
		"internal/montecarlo/mc.go": `package montecarlo

import "samurai/internal/rng"

// helper hides the constant seed one call deep.
func helper() *rng.Stream { return rng.New(12345) }

// Run is the exported seeded entry point.
func Run() uint64 { return helper().Uint64() }
`,
	}
	got := run(t, files, seedpurityRule)
	wantChain(t, got, "Run -> helper", "12345")
}

func TestSeedpuritySeedDerivedStreamsAreClean(t *testing.T) {
	files := map[string]string{
		"internal/rng/rng.go": rngStub,
		"internal/montecarlo/mc.go": `package montecarlo

import "samurai/internal/rng"

// Config carries the job seed.
type Config struct{ Seed uint64 }

// Run seeds from the config and splits per cell — the approved shape.
func Run(cfg Config, cells int) uint64 {
	root := rng.New(cfg.Seed)
	var sum uint64
	for i := 0; i < cells; i++ {
		sum += root.Split(uint64(i)).Uint64()
	}
	return sum
}
`,
	}
	wantN(t, run(t, files, seedpurityRule), 0)
}

func TestSeedpurityIgnoresUnreachablePackages(t *testing.T) {
	files := map[string]string{
		"internal/rng/rng.go": rngStub,
		"internal/experiments/x.go": `package experiments

import "samurai/internal/rng"

// Scratch is off the seeded path; constant seeds are fine here.
func Scratch() uint64 { return rng.New(7).Uint64() }
`,
	}
	wantN(t, run(t, files, seedpurityRule), 0)
}
