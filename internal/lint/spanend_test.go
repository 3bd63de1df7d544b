package lint

import "testing"

// traceStub mirrors the (ctx, span) surface of
// samurai/internal/obs/trace.
const traceStub = `package trace

import "context"

type Span struct{ path string }

func Start(ctx context.Context, name string) (context.Context, *Span) {
	return ctx, &Span{path: name}
}

func StartInst(ctx context.Context, name string, inst uint64) (context.Context, *Span) {
	return ctx, &Span{path: name}
}

func (s *Span) End() int       { return 0 }
func (s *Span) Path() string   { return s.path }
func (s *Span) SpanID() uint64 { return 0 }
`

func spanendFixture(body string) map[string]string {
	return map[string]string{
		"internal/obs/trace/trace.go": traceStub,
		"sim/sim.go":                  body,
	}
}

func TestSpanEndFlagsNeverEndedSpan(t *testing.T) {
	files := spanendFixture(`package sim

import (
	"context"

	"samurai/internal/obs/trace"
)

func Work(ctx context.Context) {
	_, sp := trace.Start(ctx, "work")
	_ = sp.Path()
}
`)
	wantFindings(t, diags(t, files, spanEndRule), 1)
}

func TestSpanEndAcceptsDeferredEnd(t *testing.T) {
	files := spanendFixture(`package sim

import (
	"context"

	"samurai/internal/obs/trace"
)

func Work(ctx context.Context) {
	ctx, sp := trace.Start(ctx, "work")
	defer sp.End()

	ctx, tsp := trace.StartInst(ctx, "phase", 1)
	defer tsp.End()
	_ = ctx
}
`)
	wantFindings(t, diags(t, files, spanEndRule), 0)
}

func TestSpanEndAcceptsDeferredClosureEnd(t *testing.T) {
	files := spanendFixture(`package sim

import (
	"context"

	"samurai/internal/obs/trace"
)

func Work(ctx context.Context) {
	_, sp := trace.Start(ctx, "work")
	defer func() {
		sp.End()
	}()
}
`)
	wantFindings(t, diags(t, files, spanEndRule), 0)
}

func TestSpanEndAcceptsStraightLineExplicitEnd(t *testing.T) {
	// The rtngen pattern: create, work, End, no return in between.
	files := spanendFixture(`package sim

import (
	"context"

	"samurai/internal/obs/trace"
)

func Work(ctx context.Context) {
	ctx, sp := trace.Start(ctx, "work")
	_, child := trace.Start(ctx, "inner")
	child.End()
	sp.End()
}
`)
	wantFindings(t, diags(t, files, spanEndRule), 0)
}

func TestSpanEndFlagsReturnBetweenCreateAndEnd(t *testing.T) {
	files := spanendFixture(`package sim

import (
	"context"

	"samurai/internal/obs/trace"
)

func Work(ctx context.Context, fail bool) error {
	_, sp := trace.Start(ctx, "work")
	if fail {
		return nil // leaks sp
	}
	sp.End()
	return nil
}
`)
	wantFindings(t, diags(t, files, spanEndRule), 1)
}

func TestSpanEndFlagsDiscardedResults(t *testing.T) {
	files := spanendFixture(`package sim

import (
	"context"

	"samurai/internal/obs/trace"
)

func Work(ctx context.Context) {
	trace.Start(ctx, "dropped")
	_, _ = trace.StartInst(ctx, "blank", 1)
	_, _ = trace.Start(ctx, "blank2")
}
`)
	wantFindings(t, diags(t, files, spanEndRule), 3)
}

func TestSpanEndSkipsEscapingSpans(t *testing.T) {
	files := spanendFixture(`package sim

import (
	"context"

	"samurai/internal/obs/trace"
)

type holder struct{ sp *trace.Span }

func finish(sp *trace.Span) { sp.End() }

// Returned: the caller owns the End.
func Open(ctx context.Context) *trace.Span {
	_, sp := trace.Start(ctx, "open")
	return sp
}

// Passed on: finish owns the End.
func Delegate(ctx context.Context) {
	_, sp := trace.Start(ctx, "delegate")
	finish(sp)
}

// Stored: the holder owns the End.
func Stash(ctx context.Context, h *holder) {
	_, sp := trace.Start(ctx, "stash")
	h.sp = sp
}
`)
	wantFindings(t, diags(t, files, spanEndRule), 0)
}

func TestSpanEndTracksTraceTupleResult(t *testing.T) {
	// The span sits at index 1 of trace.Start's results; the context at
	// index 0 must not be mistaken for the trackable value.
	files := spanendFixture(`package sim

import (
	"context"

	"samurai/internal/obs/trace"
)

func Work(ctx context.Context) {
	ctx, sp := trace.StartInst(ctx, "cell", 3)
	_ = ctx
	_ = sp.Path()
}
`)
	wantFindings(t, diags(t, files, spanEndRule), 1)
}

func TestSpanEndHonoursIgnoreDirective(t *testing.T) {
	files := spanendFixture(`package sim

import (
	"context"

	"samurai/internal/obs/trace"
)

func Work(ctx context.Context) {
	//lint:ignore spanend span deliberately left open for the process lifetime
	_, sp := trace.Start(ctx, "work")
	_ = sp
}
`)
	wantFindings(t, diags(t, files, spanEndRule), 0)
}

func TestSpanEndIgnoresUnrelatedCalls(t *testing.T) {
	// Functions returning non-span values, or spans from other
	// packages, are not this rule's business.
	files := spanendFixture(`package sim

type fake struct{}

func (f *fake) End() {}

func open() *fake { return &fake{} }

func Work() {
	f := open()
	_ = f
}
`)
	wantFindings(t, diags(t, files, spanEndRule), 0)
}
