// Package tracename is a dibella-lint test fixture: trace event and
// metric names must be package-level string constants. Expected
// diagnostics are encoded in the // want comments (see lint_test.go).
package tracename

import (
	"context"

	"fmt"

	"dibella/cmd/dibella-lint/testdata/src/tracename/helpers"
	"dibella/internal/trace"
)

// The registered name surface of this fixture.
const (
	traceGoodSpan   = "fixture.span"
	traceGoodMark   = "fixture.mark"
	metricGoodTotal = "fixture_total"
)

// Registration with a constant name is the sanctioned pattern.
var goodTotal = trace.RegisterCounter(metricGoodTotal, "a registered fixture counter")

// GoodConstants emits only registered names; tag values are data and
// may be dynamic.
func GoodConstants(rec *trace.Recorder, tenant string) {
	rec.Begin(traceGoodSpan, 0)
	rec.InstantTag(traceGoodMark, 0, tenant)
	rec.End(traceGoodSpan, 0, 1)
	goodTotal.Inc()
}

// GoodQualified emits a constant declared in another package: scope,
// not declaring package, is what matters.
func GoodQualified(rec *trace.Recorder) {
	rec.Instant(helpers.TraceSharedSpan, 0, 0)
}

// BadLiteral inlines the name at the call site, so no constant
// declaration ever names it.
func BadLiteral(rec *trace.Recorder) {
	rec.Begin("fixture.inline", 0)    // want tracename:"string literal"
	rec.End("fixture.inline", 0, 0)   // want tracename:"string literal"
	rec.FlowOut("fixture.flow", 0, 1) // want tracename:"string literal"
}

// BadLocalVariable launders the name through a local: the set of
// emittable names is no longer enumerable from const declarations.
func BadLocalVariable(rec *trace.Recorder, chunk bool) {
	name := traceGoodSpan
	if chunk {
		name = traceGoodMark
	}
	rec.Instant(name, 0, 0) // want tracename:"the variable name"
}

// BadComputed builds an unbounded name from request data — the failure
// mode the analyzer exists to prevent.
func BadComputed(tenant string) {
	trace.RegisterCounter(fmt.Sprintf("fixture_%s_total", tenant), "per-tenant") // want tracename:"computed value"
}

// BadConcat concatenates at the call site.
func BadConcat(rec *trace.Recorder, suffix string) {
	rec.Instant(traceGoodMark+suffix, 0, 0) // want tracename:"concatenation"
}

// GoodProfileLabel labels a region for the profiler with a registered span
// name; the rank is data.
func GoodProfileLabel(rank int) {
	trace.Do(context.Background(), traceGoodSpan, rank, func(context.Context) {})
}

// BadProfileLabel labels it with a literal, which no span carries.
func BadProfileLabel(rank int) {
	trace.Do(context.Background(), "fixture.region", rank, func(context.Context) {}) // want tracename:"string literal"
}
