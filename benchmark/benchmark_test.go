package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestSmoke runs every workload, timed and traced, on a 20 000-row
// dataset for half a second each, and checks that the run is correct,
// that every metric BENCHMARK.json names is emitted with its unit, that
// each ledger row counts work on the workload meant to exercise it, and
// that a result compared with itself is not worse.
func TestSmoke(t *testing.T) {
	if err := os.Chdir(".."); err != nil { // outDir and BENCHMARK.json are relative to the repo root
		t.Fatal(err)
	}
	b, err := loadBenchmarkFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	if len(b.EndToEnd) != len(endToEndMetrics) || len(b.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the code %d+%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEndMetrics), len(perLayerMetrics))
	}
	for i, m := range b.EndToEnd {
		if d := endToEndMetrics[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("end_to_end %d: BENCHMARK.json %s [%s], code %s [%s]", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
	for i, m := range b.PerLayer {
		if d := perLayerMetrics[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per_layer %d: BENCHMARK.json %s [%s], code %s [%s]", i, m.Name, m.Unit, d.name, d.unit)
		}
	}

	// positive lists the ledger rows that must count work on a workload.
	everywhere := []string{"httpapi.self_us_p50", "httpapi.response_bytes", "query.candidates_us", "query.interpret_us",
		"query.space_size", "prob.rank_us", "prob.interpretations_ranked", "invindex.estimate_cost_us",
		"invindex.keywords_prefix_us", "trace_overhead_ratio", "durable.checkpoint_ms", "durable.bytes_on_disk_per_row"}
	executor := []string{"topk.self_ms", "topk.plans_executed", "topk.results_per_plan", "relstore.execute_ms",
		"relstore.execute_calls", "relstore.count_calls", "relstore.rows_returned", "divq.filter_ms",
		"divq.diversify_us", "divq.nonempty_ratio", "ledger.executor_share"}
	positive := map[string][]string{
		"search.interp": nil,
		"rows.fresh":    executor,
		"rows.zipf":     append([]string{"qcache.hit_ratio", "qcache.lookup_us", "qcache.resident_mb"}, executor...),
		"mixed.write": append([]string{"apply.ms_p50", "apply.ms_p95", "durable.wal_bytes_per_batch",
			"qcache.invalidations", "construct.ms"}, executor...),
	}

	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), GitCommit: "test"}
	results := filepath.Join(t.TempDir(), "results.jsonl")
	for _, w := range workloads {
		cfg := config{w: w, seed: 7, seconds: 0.5, rows: 20_000, tracedOps: 150, host: h}
		rec, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d: %s", w.name, rec.Correct, rec.Attempted, rec.Failed, rec.Error)
		}
		if len(rec.Metrics) != len(endToEndMetrics) {
			t.Errorf("%s: %d end-to-end metrics emitted, want %d", w.name, len(rec.Metrics), len(endToEndMetrics))
		}
		for _, d := range endToEndMetrics {
			if m, ok := rec.Metrics[d.name]; !ok || m.Unit != d.unit || !(m.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %+v (emitted %v)", w.name, d.name, m, ok)
			}
		}
		if s := rec.Kinds[kindNames[w.primary]]; s.Samples == 0 {
			t.Errorf("%s: no samples of the primary kind %s", w.name, kindNames[w.primary])
		}
		if err := writeRecord(rec, results); err != nil {
			t.Fatal(err)
		}

		cfg.trace = true
		rec, err = run(cfg)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
			t.Errorf("%s traced: correct=%v attempted=%d failed=%d: %s", w.name, rec.Correct, rec.Attempted, rec.Failed, rec.Error)
		}
		if len(rec.Metrics) != len(perLayerMetrics) {
			t.Errorf("%s traced: %d per-layer metrics emitted, want %d", w.name, len(rec.Metrics), len(perLayerMetrics))
		}
		for _, d := range perLayerMetrics {
			if m, ok := rec.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("%s traced: per-layer metric %s = %+v (emitted %v)", w.name, d.name, m, ok)
			}
		}
		for _, name := range append(everywhere, positive[w.name]...) {
			if !(rec.Metrics[name].Value > 0) {
				t.Errorf("%s traced: %s = %v, want work counted", w.name, name, rec.Metrics[name].Value)
			}
		}
		if w.name == "search.interp" {
			for _, name := range executor {
				if rec.Metrics[name].Value != 0 {
					t.Errorf("search.interp traced: %s = %v, want 0: no plan may execute", name, rec.Metrics[name].Value)
				}
			}
		}
		if c := rec.Metrics["ledger.coverage_ratio"].Value; math.Abs(c-1) > 0.05 {
			t.Errorf("%s traced: self times sum to %.3f of the traced time", w.name, c)
		}
		checkSpans(t, w.name)
	}

	var out bytes.Buffer
	worse, err := compareFiles(&out, results, results)
	if err != nil {
		t.Fatal(err)
	}
	if worse {
		t.Errorf("a result compared with itself is worse:\n%s", out.String())
	}
}

// checkSpans reads the trace the last traced run wrote and checks that
// every span closes after it opens and names a parent that contains it.
func checkSpans(t *testing.T, workload string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(outDir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(raw, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatalf("%s: empty trace", workload)
	}
	for i, s := range spans {
		if s.ID != i || s.End < s.Start {
			t.Fatalf("%s: span %d: %+v", workload, i, s)
		}
		if s.Parent < 0 {
			continue
		}
		if s.Parent >= i {
			t.Fatalf("%s: span %d names parent %d, which does not precede it", workload, i, s.Parent)
		}
		if p := spans[s.Parent]; p.Op != s.Op || s.Start < p.Start || s.End > p.End {
			t.Fatalf("%s: span %+v is not inside its parent %+v", workload, s, p)
		}
	}
}

func TestSpread(t *testing.T) {
	// Python: statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25].
	got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if want := (8.25 - 2.75) / 5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 30, End: 60}, // overlaps its sibling: covered once
		{ID: 3, Parent: 1, Start: 15, End: 20},
	}
	want := []int64{50, 25, 30, 5}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got, want[i])
		}
	}
}
