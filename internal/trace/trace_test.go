package trace

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// A nil *Trace must absorb every call without panicking or allocating
// state — this is the disabled serving path.
func TestNilTraceIsInert(t *testing.T) {
	var tr *Trace
	if got := tr.ID(); got != "" {
		t.Fatalf("nil ID = %q, want empty", got)
	}
	sp := tr.Start("stage")
	if sp.Index() != -1 {
		t.Fatalf("nil span index = %d, want -1", sp.Index())
	}
	sp.End()
	tr.Count("n", 1)
	tr.CountDuration("busy_ns", time.Millisecond)
	tr.Annotate("k", "v")
	d := tr.Snapshot()
	if d.ID != "" || len(d.Spans) != 0 || d.Counters != nil || d.Annotations != nil {
		t.Fatalf("nil Snapshot not empty: %+v", d)
	}
	if d.StageDurations() != nil {
		t.Fatal("nil StageDurations should be nil")
	}
}

func TestContextRoundTrip(t *testing.T) {
	ctx := context.Background()
	if got := FromContext(ctx); got != nil {
		t.Fatalf("FromContext(empty) = %v, want nil", got)
	}
	if got := FromContext(nil); got != nil { //nolint:staticcheck // nil ctx tolerated by design
		t.Fatalf("FromContext(nil) = %v, want nil", got)
	}

	tr := New("abc")
	ctx2 := NewContext(ctx, tr)
	if got := FromContext(ctx2); got != tr {
		t.Fatalf("FromContext returned %v, want the installed trace", got)
	}

	// Nil trace must not grow the context chain.
	if ctx3 := NewContext(ctx, nil); ctx3 != ctx {
		t.Fatal("NewContext(ctx, nil) should return ctx unchanged")
	}
}

func TestIDGeneration(t *testing.T) {
	if got := New("client-supplied").ID(); got != "client-supplied" {
		t.Fatalf("ID = %q, want client-supplied", got)
	}
	a, b := New("").ID(), New("").ID()
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("generated IDs %q, %q: want 16 hex chars", a, b)
	}
	if a == b {
		t.Fatalf("two generated IDs collided: %q", a)
	}
}

func TestSpansAndTree(t *testing.T) {
	tr := New("t1")
	root := tr.Start("request")
	child := tr.StartChild("interpret", root.Index())
	grand := tr.StartChild("rank", child.Index())
	grand.End()
	child.End()
	root.End()
	open := tr.Start("dangling") // never ended
	_ = open

	d := tr.Snapshot()
	if len(d.Spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(d.Spans))
	}
	if d.Spans[0].Parent != -1 || d.Spans[1].Parent != 0 || d.Spans[2].Parent != 1 {
		t.Fatalf("parent chain wrong: %+v", d.Spans)
	}
	for i := 0; i < 3; i++ {
		if d.Spans[i].DurUS < 0 {
			t.Fatalf("span %d not closed: %+v", i, d.Spans[i])
		}
	}
	if d.Spans[3].DurUS != -1 {
		t.Fatalf("open span should report -1, got %d", d.Spans[3].DurUS)
	}
	// Offsets are monotone in creation order.
	for i := 1; i < len(d.Spans); i++ {
		if d.Spans[i].StartUS < d.Spans[i-1].StartUS {
			t.Fatalf("offsets not monotone: %+v", d.Spans)
		}
	}
}

func TestCountersAndAnnotations(t *testing.T) {
	tr := New("t2")
	tr.Count("plans_executed", 3)
	tr.Count("plans_executed", 2)
	tr.CountDuration("plan_exec_ns", 1500*time.Microsecond)
	tr.Annotate("cache", "miss")
	tr.Annotate("cache", "hit") // overwrite

	d := tr.Snapshot()
	if d.Counters["plans_executed"] != 5 {
		t.Fatalf("counter = %d, want 5", d.Counters["plans_executed"])
	}
	if d.Counters["plan_exec_ns"] != 1_500_000 {
		t.Fatalf("duration counter = %d, want 1500000", d.Counters["plan_exec_ns"])
	}
	if d.Annotations["cache"] != "hit" {
		t.Fatalf("annotation = %q, want hit", d.Annotations["cache"])
	}
	if len(d.Counters) != 2 {
		t.Fatalf("counters = %v, want 2", d.Counters)
	}
}

func TestStageDurations(t *testing.T) {
	tr := New("t3")
	a := tr.Start("execute")
	a.End()
	b := tr.Start("execute") // repeated name sums
	b.End()
	tr.Count("plan_exec_ns", 4_000_000) // 4ms → 4000us
	tr.Count("plans", 7)                // not a _ns counter: excluded
	open := tr.Start("open")
	_ = open // DurUS -1: excluded

	st := tr.Snapshot().StageDurations()
	if _, ok := st["open"]; ok {
		t.Fatal("open span leaked into StageDurations")
	}
	if _, ok := st["plans"]; ok {
		t.Fatal("plain counter leaked into StageDurations")
	}
	if st["plan_exec_us"] != 4000 {
		t.Fatalf("plan_exec_us = %d, want 4000", st["plan_exec_us"])
	}
	if _, ok := st["execute"]; !ok {
		t.Fatal("execute span missing")
	}
}

// Snapshot must share nothing with the live trace: mutating the trace
// after Snapshot must not affect the copy.
func TestSnapshotIsolation(t *testing.T) {
	tr := New("t4")
	sp := tr.Start("a")
	tr.Count("c", 1)
	tr.Annotate("k", "v1")
	d := tr.Snapshot()
	sp.End()
	tr.Count("c", 10)
	tr.Annotate("k", "v2")
	if d.Spans[0].DurUS != -1 || d.Counters["c"] != 1 || d.Annotations["k"] != "v1" {
		t.Fatalf("snapshot mutated by later writes: %+v", d)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := New("t5")
	sp := tr.Start("interpret")
	sp.End()
	tr.Count("rows", 42)
	tr.Annotate("outcome", "ok")
	line := tr.Snapshot().JSON()
	var back Data
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatalf("JSON line does not parse: %v\n%s", err, line)
	}
	if back.ID != "t5" || len(back.Spans) != 1 || back.Counters["rows"] != 42 || back.Annotations["outcome"] != "ok" {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

// Concurrent recording from many goroutines (the pipeline-worker pattern)
// must be race-free and lose nothing. Run with -race.
func TestConcurrentRecording(t *testing.T) {
	tr := New("race")
	const workers, iters = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				sp := tr.Start("worker")
				tr.Count("events", 1)
				tr.CountDuration("busy_ns", time.Nanosecond)
				tr.Annotate("last", "x")
				sp.End()
				if i%50 == 0 {
					_ = tr.Snapshot() // snapshot while writers are live
				}
			}
		}(w)
	}
	wg.Wait()
	d := tr.Snapshot()
	if d.Counters["events"] != workers*iters {
		t.Fatalf("events = %d, want %d", d.Counters["events"], workers*iters)
	}
	if len(d.Spans) != workers*iters {
		t.Fatalf("spans = %d, want %d", len(d.Spans), workers*iters)
	}
}

// The disabled-path cost the engine pays per instrumentation point.
func BenchmarkNilTraceOps(b *testing.B) {
	var tr *Trace
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		got := FromContext(ctx)
		sp := got.Start("x")
		got.Count("c", 1)
		sp.End()
		_ = tr
	}
}

func BenchmarkEnabledSpan(b *testing.B) {
	tr := New("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Start("x")
		sp.End()
	}
}
