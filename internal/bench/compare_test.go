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
	return Row{Name: name, Metrics: map[string]float64{"goodput_rps": 1}, Ratios: ratios}
}

func TestCompare(t *testing.T) {
	vsSat := func(v float64) map[string]float64 { return map[string]float64{"goodput_vs_saturation": v} }
	vsStatic := func(v float64) map[string]float64 { return map[string]float64{"goodput_vs_static_knee": v} }
	base := report(leg("overload", row("ungated-8x", nil),
		row("static-knee-8x", vsSat(1.2)), row("adaptive-8x", vsStatic(1.2))))
	for _, tc := range []struct {
		name      string
		base, cur *Report
		checks    int      // ratios reported on
		failed    []string // leg/row/column of each failing check
		wantErr   bool
	}{
		{name: "within tolerance passes; the ungated baseline row is not tracked",
			base: base, cur: report(leg("overload", row("static-knee-8x", vsSat(0.61)), row("adaptive-8x", vsStatic(1.5)))),
			checks: 2},
		{name: "below base*(1-tolerance) fails, naming leg, row and column",
			base: base, cur: report(leg("overload", row("static-knee-8x", vsSat(1.2)), row("adaptive-8x", vsStatic(0.59)))),
			checks: 2, failed: []string{"overload/adaptive-8x/goodput_vs_static_knee"}},
		{name: "a column the fresh row lost fails",
			base: base, cur: report(leg("overload", row("static-knee-8x", nil), row("adaptive-8x", vsStatic(1.2)))),
			checks: 2, failed: []string{"overload/static-knee-8x/goodput_vs_saturation"}},
		{name: "a tracked row missing from the fresh report fails",
			base: base, cur: report(leg("overload", row("ungated-8x", nil), row("static-knee-8x", vsSat(1.2)))),
			checks: 2, failed: []string{"overload/adaptive-8x/"}},
		{name: "a leg missing from the fresh report fails",
			base: base, cur: report(leg("qcache")), checks: 1, failed: []string{"overload//"}},
		{name: "a ratio of exactly 1.0 on a non-baseline row is still tracked",
			base: report(leg("overload", row("adaptive-8x", vsStatic(1)))),
			cur:  report(leg("overload", row("adaptive-8x", vsStatic(0.4)))), checks: 1,
			failed: []string{"overload/adaptive-8x/goodput_vs_static_knee"}},
		{name: "schema mismatch is an error",
			base: &Report{Legs: base.Legs}, cur: base, wantErr: true},
		{name: "an unregistered leg in the baseline is an error",
			base: report(base.Legs[0], leg("mutate")), cur: base, wantErr: true},
		{name: "a baseline without the leg is an error",
			base: report(), cur: base, wantErr: true},
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
		`"legs":[{"name":"overload","quick":true,"dataset":"demo","params":{"workload_ops":512},` +
		`"rows":[{"name":"ungated-8x","metrics":{"goodput_rps":5}},` +
		`{"name":"adaptive-8x","metrics":{"goodput_rps":6},"ratios":{"goodput_vs_static_knee":1.2}}]}]}`
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
