package bench

import (
	"context"
	"testing"

	"repro/internal/trace"
)

// TestDisabledTracingOverheadGuard is the ≤2% bar for the tracing
// substrate's disabled path, priced against the executor leg's cached
// request. With tracing off, every instrumentation point in the
// request path costs one trace.FromContext lookup and/or a nil-receiver
// method call; this guard measures that bundle directly and requires
// that a generous per-request allowance of such points (far above what
// the engine actually executes) stays under 2% of one executor-leg
// request. Measuring the primitive rather than diffing two full-request
// timings keeps the guard deterministic — request-scale A/B ratios on a
// shared CI core drown a 2% signal in scheduler noise.
func TestDisabledTracingOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale dataset build in -short mode")
	}
	spec, err := executorOps()
	if err != nil {
		t.Fatal(err)
	}
	var request func() error
	for _, op := range spec.ops {
		if op.name == "postings+cache" {
			request = op.run
		}
	}
	opRes := testing.Benchmark(func(b *testing.B) {
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			// One disabled instrumentation point: context lookup, span
			// open/close, one counter.
			tr := trace.FromContext(ctx)
			sp := tr.Start("stage")
			tr.Count("work", 1)
			sp.End()
		}
	})
	reqRes := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := request(); err != nil {
				b.Fatal(err)
			}
		}
	})

	// A traced request records a handful of spans and a few counters per
	// executed plan; 512 points per request over-counts the real
	// instrumentation density by more than an order of magnitude.
	const pointsPerRequest = 512
	overheadNS := float64(opRes.NsPerOp()) * pointsPerRequest
	budgetNS := 0.02 * float64(reqRes.NsPerOp())
	t.Logf("disabled point: %d ns/op; request: %d ns/op; %d points = %.0f ns vs 2%% budget %.0f ns",
		opRes.NsPerOp(), reqRes.NsPerOp(), pointsPerRequest, overheadNS, budgetNS)
	if overheadNS > budgetNS {
		t.Fatalf("disabled tracing overhead %.0f ns exceeds 2%% of the executor microbench (%.0f ns)",
			overheadNS, budgetNS)
	}
}
