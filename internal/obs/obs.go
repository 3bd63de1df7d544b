// Package obs is the repository's zero-dependency observability layer:
// a race-safe metrics registry (atomic counters and gauges,
// lock-striped histograms) and structured progress events, with
// Prometheus text exposition and pluggable event sinks (stderr text,
// JSONL, discard). Spans live in the trace subpackage.
//
// # Determinism guarantee
//
// Instrumentation built on this package is deterministic by
// construction: obs never touches rng.Stream or any other source of
// simulation randomness, and instrumented code never branches on a
// metric or sink value. Seeded simulation results are therefore
// bit-identical whether the process-wide sink is Discard or a live
// sink, and whether or not /metrics is being scraped. (Wall-clock
// readings appear only in telemetry output — event fields, span
// durations, throughput gauges — never in results.) The golden test
// TestObsDeterminism in the root package enforces this.
//
// # Usage
//
// Instrumented packages resolve their series lazily from the default
// registry, typically in package-level vars:
//
//	var solves = obs.GetCounter("samurai_circuit_newton_solves_total",
//		"completed Newton solves")
//
// Hot loops accumulate into local variables and publish once per call,
// so the per-iteration instrumentation cost is zero. Progress events
// flow through the process-wide sink, which defaults to Discard:
//
//	obs.Emit("montecarlo.progress", obs.F("done", n), obs.F("cells_per_sec", r))
//
// Binaries opt in with -progress (text sink on stderr) and
// -metrics-addr (Prometheus exposition plus net/http/pprof).
package obs

import "sync/atomic"

// std is the process-wide default registry; package-level helpers
// resolve series against it.
var std = NewRegistry()

// Default returns the process-wide registry (used by Handler and the
// package-level metric constructors).
func Default() *Registry { return std }

// GetCounter resolves a counter in the default registry.
func GetCounter(name, help string, labels ...Label) *Counter {
	return std.Counter(name, help, labels...)
}

// GetFloatCounter resolves a float counter in the default registry.
func GetFloatCounter(name, help string, labels ...Label) *FloatCounter {
	return std.FloatCounter(name, help, labels...)
}

// GetGauge resolves a gauge in the default registry.
func GetGauge(name, help string, labels ...Label) *Gauge {
	return std.Gauge(name, help, labels...)
}

// GetHistogram resolves a histogram in the default registry.
func GetHistogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	return std.Histogram(name, help, bounds, labels...)
}

// sinkBox wraps the current sink so it can live in an atomic.Pointer.
type sinkBox struct{ s Sink }

var currentSink atomic.Pointer[sinkBox]

func init() {
	currentSink.Store(&sinkBox{s: Discard})
}

// SetSink swaps the process-wide event sink and returns the previous
// one. Pass Discard (or nil) to turn progress events off.
func SetSink(s Sink) Sink {
	if s == nil {
		s = Discard
	}
	prev := currentSink.Swap(&sinkBox{s: s})
	return prev.s
}

// CurrentSink returns the process-wide event sink.
func CurrentSink() Sink { return currentSink.Load().s }

// Enabled reports whether progress events currently go anywhere.
// Emitters with non-trivial field construction cost should check it
// first; Emit itself is safe to call regardless.
func Enabled() bool { return CurrentSink() != Discard }

// Emit sends a progress event to the process-wide sink. With the
// Discard sink this is a single atomic load plus an interface call.
func Emit(name string, fields ...Field) {
	s := CurrentSink()
	if s == Discard {
		return
	}
	s.Emit(Event{Name: name, Fields: fields})
}
