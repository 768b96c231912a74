package bench

import (
	"net/http"
	"testing"
	"time"
)

// TestLegsQuick runs the overload leg at toy scale: the point is that
// it executes, its rows are shaped right (guard column on the treated
// row, none on the baseline row), and its proof that the gates engaged
// holds — not that any number means anything at this size.
func TestLegsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("drives an HTTP server for several seconds")
	}
	// 60k rows, so queries cost real milliseconds. Even so, on one core a
	// handler that never blocks runs to completion before the next is
	// scheduled, and the gates never see two requests in flight; a
	// blocking service time inside the gate makes admitted requests
	// overlap on any scheduler.
	rep, err := Run(Config{Quick: true, Rows: 60000, Step: 300 * time.Millisecond, Window: 150 * time.Millisecond,
		Wrap: blockingService(2 * time.Millisecond)}, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Legs) != 1 {
		t.Fatalf("report holds %d legs, want 1", len(rep.Legs))
	}
	lr := rep.Legs[0]
	if lr.Name != LegName || !lr.Quick || lr.Dataset == "" || len(lr.Rows) == 0 {
		t.Fatalf("leg report malformed: %+v", lr)
	}
	rows := map[string]Row{}
	for _, r := range lr.Rows {
		if r.Metrics["requests"] == 0 {
			t.Errorf("%s measured nothing: %+v", r.Name, r)
		}
		rows[r.Name] = r
	}

	for _, w := range []struct{ base, treated, column string }{
		{"open-half-knee", "static-knee-8x", "goodput_vs_saturation"},
		{"ungated-8x", "adaptive-8x", "goodput_vs_static_knee"},
	} {
		base, ok := rows[w.base]
		if !ok || len(base.Ratios) != 0 {
			t.Errorf("%s: baseline row missing or carrying a guard column: %+v", w.base, base)
		}
		if got := rows[w.treated].Ratios[w.column]; got <= 0 {
			t.Errorf("%s missing guard column %s", w.treated, w.column)
		}
	}

	if m := rows["open-half-knee"].Metrics; m["target_rps"] <= 0 {
		t.Errorf("open-loop row malformed: %+v", m)
	}
	static := rows["static-knee-8x"].Metrics
	if static["shed_429"]+static["shed_503"] == 0 {
		t.Errorf("static overload row shed nothing: %+v", static)
	}
	if static["max_queue"] == 0 || static["max_queued_seen"] > static["max_queue"] {
		t.Errorf("queue bound violated or unrecorded: %+v", static)
	}
	g := rows["adaptive-8x"].Metrics
	if g["governor_windows"] == 0 {
		t.Errorf("governor control loop never rotated a window: %+v", g)
	}
	if g["governor_limit"] < g["governor_min_limit"] || g["governor_limit"] > g["governor_max_limit"] {
		t.Errorf("governor limit escaped its bounds: %+v", g)
	}
	if g["governor_bands"] < 2 {
		t.Errorf("governor derived no cost bands: %+v", g)
	}
}

// blockingService wraps a handler with a fixed sleep before it runs: the
// request holds its admission slot while it sleeps, without using the
// CPU.
func blockingService(d time.Duration) func(http.Handler) http.Handler {
	return func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(d)
			inner.ServeHTTP(w, r)
		})
	}
}
