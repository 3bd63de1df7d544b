package samurai_test

// The observability layer must be a pure observer: enabling sinks,
// spans and metrics may never perturb the simulated numbers. These
// tests pin that guarantee — a seeded run is bit-identical whether
// telemetry is discarded or fully live — and measure the overhead of
// leaving instrumentation enabled (the acceptance bound is <5% on the
// full methodology).

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	samurai "samurai"
	"samurai/internal/device"
	"samurai/internal/montecarlo"
	"samurai/internal/obs"
	"samurai/internal/obs/trace"
	"samurai/internal/rtn"
	"samurai/internal/sram"
)

// withLiveSink runs fn with a fully live JSONL sink installed so every
// obs.Emit call formats and writes its event, then restores the
// previous sink.
func withLiveSink(fn func()) {
	prev := obs.SetSink(obs.NewJSONLSink(io.Discard))
	defer obs.SetSink(prev)
	fn()
}

// sameTrace compares two RTN traces bit for bit.
func sameTrace(t *testing.T, name string, a, b *rtn.Trace) {
	t.Helper()
	at, ai := a.T, a.I
	bt, bi := b.T, b.I
	if len(at) != len(bt) {
		t.Fatalf("%s: sample counts differ: %d vs %d", name, len(at), len(bt))
	}
	for i := range at {
		if math.Float64bits(at[i]) != math.Float64bits(bt[i]) ||
			math.Float64bits(ai[i]) != math.Float64bits(bi[i]) {
			t.Fatalf("%s: sample %d differs: (%g,%g) vs (%g,%g)", name, i, at[i], ai[i], bt[i], bi[i])
		}
	}
}

func TestObsDeterminismRun(t *testing.T) {
	cfg := samurai.Config{Seed: 42}

	quiet, err := samurai.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var live *samurai.Result
	withLiveSink(func() {
		live, err = samurai.Run(cfg)
	})
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(quiet.Clean.Cycles, live.Clean.Cycles) {
		t.Fatal("clean-pass cycles differ with a live sink installed")
	}
	if !reflect.DeepEqual(quiet.WithRTN.Cycles, live.WithRTN.Cycles) {
		t.Fatal("RTN-pass cycles differ with a live sink installed")
	}
	for _, name := range sram.Transistors {
		sameTrace(t, name, quiet.Traces[name], live.Traces[name])
	}
}

func TestObsDeterminismRunArray(t *testing.T) {
	tech := device.Node("45nm")
	cfg := montecarlo.ArrayConfig{
		Tech:    tech,
		Cell:    sram.CellConfig{Tech: tech},
		Pattern: sram.Fig8Pattern(tech.Vdd),
		Cells:   3,
		Scale:   1,
		Seed:    9,
		WithRTN: true,
		Workers: 2,
	}

	quiet, err := montecarlo.RunArrayCtx(context.Background(), cfg, samurai.ArrayRunnerCtx(), montecarlo.ArrayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var live *montecarlo.ArrayResult
	withLiveSink(func() {
		live, err = montecarlo.RunArrayCtx(context.Background(), cfg, samurai.ArrayRunnerCtx(), montecarlo.ArrayOptions{})
	})
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(quiet.Outcomes, live.Outcomes) {
		t.Fatal("array outcomes differ with a live sink installed")
	}
	if quiet.NumFailed != live.NumFailed ||
		math.Float64bits(quiet.ErrorRate) != math.Float64bits(live.ErrorRate) ||
		math.Float64bits(quiet.MeanTraps) != math.Float64bits(live.MeanTraps) {
		t.Fatal("array aggregates differ with a live sink installed")
	}
}

// tracedContext builds a fully live tracing setup — deterministic
// trace ID, flight recorder attached — rooted at a fresh context.
func tracedContext(seed uint64) (context.Context, *trace.Tracer) {
	tr := trace.New(trace.ID(seed, []byte("obs_determinism_test")),
		trace.Options{Flight: trace.NewFlight(256)})
	return trace.NewContext(context.Background(), tr), tr
}

// TestTraceDeterminismRun pins the tentpole contract for the trace
// layer: a seeded run is bit-identical whether it executes untraced or
// under a live tracer + flight recorder + live sink all at once.
func TestTraceDeterminismRun(t *testing.T) {
	cfg := samurai.Config{Seed: 42}

	quiet, err := samurai.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	ctx, tracer := tracedContext(cfg.Seed)
	var live *samurai.Result
	withLiveSink(func() {
		live, err = samurai.RunCtx(ctx, cfg)
	})
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(quiet.Clean.Cycles, live.Clean.Cycles) {
		t.Fatal("clean-pass cycles differ with live tracing enabled")
	}
	if !reflect.DeepEqual(quiet.WithRTN.Cycles, live.WithRTN.Cycles) {
		t.Fatal("RTN-pass cycles differ with live tracing enabled")
	}
	for _, name := range sram.Transistors {
		sameTrace(t, name, quiet.Traces[name], live.Traces[name])
	}
	if len(tracer.Snapshot()) == 0 {
		t.Fatal("traced run recorded no spans")
	}
}

// TestTiltedRunRecordsKernelSpans: a tilted run must record one
// markov.uniformise span under each transistor span, exactly as an
// untilted run does, so the span tree's shape does not depend on which
// trap kernel ran.
func TestTiltedRunRecordsKernelSpans(t *testing.T) {
	const kernelPath = "samurai.run/traps/transistor/markov.uniformise"
	for _, tilt := range []float64{0, -0.05} {
		ctx, tracer := tracedContext(7)
		if _, err := samurai.RunCtx(ctx, samurai.Config{Seed: 7, TiltEV: tilt}); err != nil {
			t.Fatal(err)
		}
		spans := tracer.Snapshot()
		byID := map[uint64]trace.SpanRec{}
		for _, s := range spans {
			byID[s.ID] = s
		}
		kernels, insts := 0, map[uint64]bool{}
		for _, s := range spans {
			if s.Path != kernelPath {
				continue
			}
			parent, ok := byID[s.Parent]
			if !ok || parent.Path != "samurai.run/traps/transistor" {
				t.Fatalf("tilt %g: kernel span parent %+v is not a transistor span", tilt, parent)
			}
			kernels++
			insts[parent.Inst] = true
		}
		if kernels != len(sram.Transistors) || len(insts) != len(sram.Transistors) {
			t.Fatalf("tilt %g: %d kernel spans under %d transistors, want one under each of %d",
				tilt, kernels, len(insts), len(sram.Transistors))
		}
	}
}

// TestTraceTopologyByteIdentical pins the deterministic-ID guarantee on
// the real pipeline: the same job run twice — with concurrent workers,
// so recording order genuinely differs — exports byte-identical
// topology, span IDs included.
func TestTraceTopologyByteIdentical(t *testing.T) {
	tech := device.Node("45nm")
	cfg := montecarlo.ArrayConfig{
		Tech:    tech,
		Cell:    sram.CellConfig{Tech: tech},
		Pattern: sram.Fig8Pattern(tech.Vdd),
		Cells:   4,
		Scale:   1,
		Seed:    9,
		WithRTN: true,
		Workers: 2,
	}

	topology := func() string {
		ctx, tracer := tracedContext(cfg.Seed)
		if _, err := montecarlo.RunArrayCtx(ctx, cfg, samurai.ArrayRunnerCtx(), montecarlo.ArrayOptions{}); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := tracer.WriteTopology(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	first, second := topology(), topology()
	if first != second {
		t.Fatalf("trace topology differs between identical runs:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	if !strings.Contains(first, "montecarlo.run_array/cell") {
		t.Fatalf("topology missing expected cell spans:\n%s", first)
	}
}

// TestTraceChromeExportValid runs the real methodology under a tracer
// and asserts the Chrome/Perfetto export is valid trace_event JSON —
// the format Perfetto's legacy loader accepts.
func TestTraceChromeExportValid(t *testing.T) {
	ctx, tracer := tracedContext(42)
	if _, err := samurai.RunCtx(ctx, samurai.Config{Seed: 42}); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := tracer.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("Chrome export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < 2 {
		t.Fatalf("expected metadata + span events, got %d events", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0].Ph != "M" {
		t.Fatalf("first event should be process_name metadata, got ph=%q", doc.TraceEvents[0].Ph)
	}
	for i, ev := range doc.TraceEvents[1:] {
		if ev.Ph != "X" {
			t.Fatalf("event %d: want complete event ph=X, got %q", i+1, ev.Ph)
		}
		if ev.Name == "" || ev.Pid != 1 || ev.Ts < 0 || ev.Dur < 0 {
			t.Fatalf("event %d malformed: %+v", i+1, ev)
		}
	}
	if !strings.Contains(b.String(), `"samurai.run/clean"`) {
		t.Fatal("export missing the clean-phase span")
	}
}

// BenchmarkRun measures the full two-pass methodology with telemetry
// discarded (the default), with a live sink draining every event, and
// with full causal tracing (tracer + flight recorder) on top — the
// gaps between the sub-benchmarks are the observability and tracing
// overheads (acceptance bound: trace within 5% of discard).
func BenchmarkRun(b *testing.B) {
	run := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := samurai.Run(samurai.Config{Seed: 42}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("discard", run)
	b.Run("obs", func(b *testing.B) { withLiveSink(func() { run(b) }) })
	b.Run("trace", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctx, _ := tracedContext(42)
			if _, err := samurai.RunCtx(ctx, samurai.Config{Seed: 42}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
