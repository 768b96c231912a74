package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func report(legs ...LegReport) *Report { return &Report{Schema: Schema, Legs: legs} }

func leg(name string, rows ...Row) LegReport { return LegReport{Name: name, Rows: rows} }

func row(name string, ratios map[string]float64) Row {
	return Row{Name: name, Metrics: map[string]float64{"ns_per_op": 1}, Ratios: ratios}
}

func TestCompare(t *testing.T) {
	vsScan := func(v float64) map[string]float64 { return map[string]float64{"speedup_vs_scan": v} }
	base := report(leg("executor", row("scan", nil), row("postings", vsScan(10))))
	for _, tc := range []struct {
		name      string
		base, cur *Report
		checks    int      // ratios reported on
		failed    []string // leg/row/column of each failing check
		wantErr   bool
	}{
		{name: "within tolerance passes; the scan baseline row is not tracked",
			base: base, cur: report(leg("executor", row("postings", vsScan(7.6)))), checks: 1},
		{name: "below base*(1-tolerance) fails, naming leg, row and column",
			base: base, cur: report(leg("executor", row("postings", vsScan(7.4)))), checks: 1,
			failed: []string{"executor/postings/speedup_vs_scan"}},
		{name: "a column the fresh row lost fails",
			base: base, cur: report(leg("executor", row("postings", nil))), checks: 1,
			failed: []string{"executor/postings/speedup_vs_scan"}},
		{name: "a tracked row missing from the fresh report fails",
			base: base, cur: report(leg("executor", row("scan", nil))), checks: 1,
			failed: []string{"executor/postings/"}},
		{name: "a leg missing from the fresh report fails",
			base: base, cur: report(leg("mutate")), checks: 1, failed: []string{"executor//"}},
		{name: "a tolerance-0 leg is reported where measured and never fails",
			base: report(leg("topk", row("kw=2/p=2", map[string]float64{"speedup_vs_sequential": 2}), row("kw=3/p=2", map[string]float64{"speedup_vs_sequential": 2}))),
			cur:  report(leg("topk", row("kw=2/p=2", map[string]float64{"speedup_vs_sequential": 0.1}))), checks: 1},
		{name: "a ratio of exactly 1.0 on a non-baseline row is still tracked",
			base: report(leg("executor", row("postings", vsScan(1)))),
			cur:  report(leg("executor", row("postings", vsScan(0.5)))), checks: 1,
			failed: []string{"executor/postings/speedup_vs_scan"}},
		{name: "schema mismatch is an error",
			base: &Report{Legs: base.Legs}, cur: base, wantErr: true},
		{name: "an unregistered leg in the baseline is an error",
			base: report(leg("load")), cur: base, wantErr: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checks, err := Compare(tc.base, tc.cur)
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, wantErr %v", err, tc.wantErr)
			}
			var failed []string
			for _, c := range checks {
				if c.Failed() {
					failed = append(failed, c.Leg+"/"+c.Row+"/"+c.Column)
				}
			}
			if len(checks) != tc.checks || !reflect.DeepEqual(failed, tc.failed) {
				t.Fatalf("got %d checks, failed %v; want %d, failed %v\n%v", len(checks), failed, tc.checks, tc.failed, checks)
			}
		})
	}
}

// TestReportRoundTrip pins the BENCH.json field names, and that Load
// refuses a file of the pre-unification per-grid shape.
func TestReportRoundTrip(t *testing.T) {
	const golden = `{"schema":1,"generated_at":"2026-01-02T03:04:05Z",` +
		`"host":{"go_version":"go1.24.0","num_cpu":2,"gomaxprocs":2},` +
		`"legs":[{"name":"executor","quick":true,"dataset":"demo","params":{"plans":26},` +
		`"rows":[{"name":"scan","metrics":{"ns_per_op":5}},` +
		`{"name":"postings","metrics":{"ns_per_op":1},"ratios":{"speedup_vs_scan":5}}]}]}`
	var rep Report
	if err := json.Unmarshal([]byte(golden), &rep); err != nil {
		t.Fatal(err)
	}
	if again, _ := json.Marshal(rep); string(again) != golden {
		t.Fatalf("round trip changed the document:\n got %s\nwant %s", again, golden)
	}
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := rep.Write(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil || !reflect.DeepEqual(loaded.Legs[0].Rows, rep.Legs[0].Rows) {
		t.Fatalf("Load(Write(rep)) = %+v, %v", loaded, err)
	}
	old := filepath.Join(t.TempDir(), "pre_unification.json")
	if err := os.WriteFile(old, []byte(`{"num_cpu":1,"rows":[{"name":"scan","speedup_vs_scan":1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(old); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("Load of a schema-less file: err = %v, want a schema error", err)
	}
}
