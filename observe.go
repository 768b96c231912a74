package keysearch

import (
	"time"

	"repro/internal/relstore"
	"repro/internal/trace"
)

// This file holds the engine-side tracing shims. Both wrappers exist
// only while a request is traced: with tracing off the providers pass
// the original values through untouched, so the disabled path carries
// no extra indirection — the property the byte-identical differential
// and the overhead guard in internal/bench pin.

// tracedView wraps a request's answer-cache view so cache consultations
// show up on the trace as counters (hits and misses per entry kind).
// A nil view stays nil — the rest of the stack distinguishes "cache
// off" by interface nilness, and wrapping nil would silently flip that.
func tracedView(view relstore.SharedStore, tr *trace.Trace) relstore.SharedStore {
	if tr == nil || view == nil {
		return view
	}
	return &countingView{inner: view, tr: tr}
}

type countingView struct {
	inner relstore.SharedStore
	tr    *trace.Trace
}

func (v *countingView) GetSelection(table string, col int, bag string) ([]int, bool) {
	rows, ok := v.inner.GetSelection(table, col, bag)
	if ok {
		v.tr.Count("answer_cache_selection_hits", 1)
	} else {
		v.tr.Count("answer_cache_selection_misses", 1)
	}
	return rows, ok
}

func (v *countingView) PutSelection(table string, col int, bag string, rows []int) {
	v.inner.PutSelection(table, col, bag, rows)
}

func (v *countingView) GetPlan(key string) ([][]int, bool) {
	rows, ok := v.inner.GetPlan(key)
	if ok {
		v.tr.Count("answer_cache_plan_hits", 1)
		v.tr.Annotate("answer_cache", "hit")
	} else {
		v.tr.Count("answer_cache_plan_misses", 1)
	}
	return rows, ok
}

func (v *countingView) PutPlan(key string, fp []relstore.Attr, rows [][]int) {
	v.inner.PutPlan(key, fp, rows)
}

func (v *countingView) GetCount(key string) (int, bool) {
	n, ok := v.inner.GetCount(key)
	if ok {
		v.tr.Count("answer_cache_count_hits", 1)
	} else {
		v.tr.Count("answer_cache_count_misses", 1)
	}
	return n, ok
}

func (v *countingView) PutCount(key string, fp []relstore.Attr, n int) {
	v.inner.PutCount(key, fp, n)
}

// tracedExecutor times plan execution at the request's executor seam —
// the per-plan channel that, aggregated as counters, stays bounded no
// matter how many interpretations a top-k request executes.
type tracedExecutor struct {
	inner relstore.PlanExecutor
	tr    *trace.Trace
}

func (x *tracedExecutor) ExecutePlan(p *relstore.JoinPlan, limit int) ([]relstore.JTT, error) {
	t0 := time.Now()
	jtts, err := x.inner.ExecutePlan(p, limit)
	x.tr.CountDuration("plan_exec_ns", time.Since(t0))
	x.tr.Count("plans_executed", 1)
	x.tr.Count("rows_materialized", int64(len(jtts)))
	return jtts, err
}

func (x *tracedExecutor) CountPlan(p *relstore.JoinPlan, limit int) (int, error) {
	t0 := time.Now()
	n, err := x.inner.CountPlan(p, limit)
	x.tr.CountDuration("plan_count_ns", time.Since(t0))
	x.tr.Count("plans_counted", 1)
	return n, err
}
