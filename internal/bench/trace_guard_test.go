package bench

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	keysearch "repro"
	"repro/internal/trace"
)

// TestDisabledTracingOverheadGuard is the ≤2% bar for the tracing
// substrate's disabled path, priced against the mean Engine.SearchRows
// request of a small mix over the demo movies, measured in the same
// test. With tracing off,
// every instrumentation point in the request path costs at most one
// trace.FromContext lookup on the request's context plus nil-receiver
// span and counter calls; this guard prices that bundle on an HTTP
// request's context, through a call the compiler cannot inline (so it
// cannot devirtualize the context either), and charges it for every
// instrumentation call the busiest request of the mix makes when
// traced — counted here, with 25% headroom — although untraced, the
// per-plan executor and answer-cache shims are not even installed. Measuring the primitive
// rather than diffing two full-request timings keeps the guard
// deterministic: request-scale A/B ratios on a shared CI core drown a
// 2% signal in scheduler noise.
func TestDisabledTracingOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the demo engine in -short mode")
	}
	eng, err := keysearch.DemoMovies(1)
	if err != nil {
		t.Fatal(err)
	}
	q := eng.SampleQueries(4)
	if len(q) < 4 {
		t.Fatalf("sample queries %q", q)
	}
	var mix []keysearch.RowsRequest
	for _, query := range []string{q[0], q[1], q[0] + " " + q[1], q[2] + " " + q[3]} {
		mix = append(mix, keysearch.RowsRequest{Query: query, K: 10})
	}

	// A request-shaped context: an HTTP request's, carrying one value
	// and a deadline, as a handler hands it to the engine.
	ctx := httptest.NewRequest("POST", "/v1/rows", nil).Context()
	ctx = context.WithValue(ctx, guardKey{}, "value")
	ctx, cancel := context.WithTimeout(ctx, time.Hour)
	defer cancel()

	calls := 0
	for _, req := range mix {
		calls = max(calls, tracedCalls(t, eng, ctx, req))
	}
	points := calls + calls/4

	pointRes := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			disabledPoint(ctx)
		}
	})
	reqRes := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eng.SearchRows(ctx, mix[i%len(mix)]); err != nil {
				b.Fatal(err)
			}
		}
	})

	overheadNS := float64(pointRes.NsPerOp()) * float64(points)
	budgetNS := 0.02 * float64(reqRes.NsPerOp())
	t.Logf("disabled point: %d ns/op; SearchRows: %d ns/op; %d traced calls +25%% = %d points = %.0f ns vs 2%% budget %.0f ns",
		pointRes.NsPerOp(), reqRes.NsPerOp(), calls, points, overheadNS, budgetNS)
	if overheadNS > budgetNS {
		t.Fatalf("disabled tracing overhead %.0f ns exceeds 2%% of a SearchRows request (%.0f ns)",
			overheadNS, budgetNS)
	}
}

type guardKey struct{}

// disabledPoint is one instrumentation point with tracing off: the
// context lookup, a span opened and closed, one counter.
//
//go:noinline
func disabledPoint(ctx context.Context) {
	tr := trace.FromContext(ctx)
	sp := tr.Start("stage")
	tr.Count("work", 1)
	sp.End()
}

// lookupCounter counts the context lookups made beneath it.
type lookupCounter struct {
	context.Context
	n int
}

func (c *lookupCounter) Value(key any) any {
	c.n++
	return c.Context.Value(key)
}

// tracedCalls runs the request traced and counts its instrumentation
// calls: every context lookup, a Start and an End per span, one call per
// annotation, and per counter one call — except those that count their
// own calls (plans executed or counted, answer-cache hits and misses),
// and the executor shim's, which records three counters per executed
// plan and two per counted plan.
func tracedCalls(t *testing.T, eng *keysearch.Engine, ctx context.Context, req keysearch.RowsRequest) int {
	t.Helper()
	tr := trace.New("")
	lc := &lookupCounter{Context: trace.NewContext(ctx, tr)}
	if _, err := eng.SearchRows(lc, req); err != nil {
		t.Fatal(err)
	}
	d := tr.Snapshot()
	calls := lc.n + 2*len(d.Spans) + len(d.Annotations)
	for name, v := range d.Counters {
		switch {
		case name == "plans_executed":
			calls += 3 * int(v)
		case name == "plans_counted":
			calls += 2 * int(v)
		case name == "plan_exec_ns", name == "rows_materialized", name == "plan_count_ns":
		case strings.HasPrefix(name, "answer_cache_"):
			calls += int(v)
		default:
			calls++
		}
	}
	if d.Counters["plans_executed"] == 0 {
		t.Fatalf("traced request executed no plan: %+v", d)
	}
	return calls
}
