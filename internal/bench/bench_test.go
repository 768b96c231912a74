package bench

import (
	"flag"
	"net/http"
	"testing"
	"time"
)

// TestLegsQuick runs every registered leg at toy scale: the point is
// that each leg executes, its rows are shaped right (guard column on the
// treated row, none on the baseline row), its self-check and its proof
// that the mechanism engaged hold, and each dataset size is built once
// — not that any number means anything at this size.
func TestLegsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four legs; takes several seconds")
	}
	// One iteration per micro row pins the shape; timing them for a
	// second each is cmd/bench's job. Restored for the tests that time.
	bt := flag.Lookup("test.benchtime")
	defer flag.Set("test.benchtime", bt.Value.String())
	flag.Set("test.benchtime", "1x")

	env := NewEnv(t.Logf)
	rows := map[string]Row{}
	for _, leg := range Legs {
		cfg := Config{Quick: true, Rows: 4000, Step: 300 * time.Millisecond}
		if leg.Name == "overload" {
			// 60k rows, not 4k, so queries cost real milliseconds. Even
			// so, on one core a handler that never blocks runs to
			// completion before the next is scheduled, and the gates
			// never see two requests in flight; a blocking service time
			// inside the gate makes admitted requests overlap on any
			// scheduler.
			cfg.Rows, cfg.Window = 60000, 150*time.Millisecond
			cfg.Wrap = blockingService(2 * time.Millisecond)
		}
		rep, err := RunLegs(env, []Leg{leg}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		lr := rep.Legs[0]
		if lr.Name != leg.Name || !lr.Quick || lr.Dataset == "" || len(lr.Rows) == 0 {
			t.Fatalf("leg %s report malformed: %+v", leg.Name, lr)
		}
		for _, r := range lr.Rows {
			if r.Metrics["requests"]+r.Metrics["ops"] == 0 {
				t.Errorf("%s/%s measured nothing: %+v", leg.Name, r.Name, r)
			}
			rows[leg.Name+"/"+r.Name] = r
		}
		if leg.Name == "overload" && env.Builds != 1 {
			t.Errorf("overload built the dataset %d times, want 1", env.Builds)
		}
	}
	// overload at 60k rows, then qcache at 4k.
	if env.Builds != 2 {
		t.Errorf("dataset built %d times, want 2 (one per dataset size)", env.Builds)
	}

	for _, w := range []struct{ leg, base, treated, column string }{
		{"mutate", "full-rebuild", "apply-batch", "speedup_vs_rebuild"},
		{"durable", "fresh-build", "wal-replay", "speedup_vs_build"},
		{"durable", "checkpoint", "open-snapshot", "speedup_vs_build"},
		{"overload", "open-half-knee", "static-knee-8x", "goodput_vs_saturation"},
		{"overload", "ungated-8x", "adaptive-8x", "goodput_vs_static_knee"},
		{"qcache", "zipf-cache-off", "zipf-cache-on", "speedup_vs_cold"},
	} {
		base, ok := rows[w.leg+"/"+w.base]
		if !ok || len(base.Ratios) != 0 {
			t.Errorf("%s/%s: baseline row missing or carrying a guard column: %+v", w.leg, w.base, base)
		}
		if got := rows[w.leg+"/"+w.treated].Ratios[w.column]; got <= 0 {
			t.Errorf("%s/%s missing guard column %s", w.leg, w.treated, w.column)
		}
	}

	if m := rows["overload/open-half-knee"].Metrics; m["target_rps"] <= 0 {
		t.Errorf("open-loop row malformed: %+v", m)
	}
	static := rows["overload/static-knee-8x"].Metrics
	if static["shed_429"]+static["shed_503"] == 0 {
		t.Errorf("static overload row shed nothing: %+v", static)
	}
	if static["max_queue"] == 0 || static["max_queued_seen"] > static["max_queue"] {
		t.Errorf("queue bound violated or unrecorded: %+v", static)
	}
	g := rows["overload/adaptive-8x"].Metrics
	if g["governor_windows"] == 0 {
		t.Errorf("governor control loop never rotated a window: %+v", g)
	}
	if g["governor_limit"] < g["governor_min_limit"] || g["governor_limit"] > g["governor_max_limit"] {
		t.Errorf("governor limit escaped its bounds: %+v", g)
	}
	if g["governor_bands"] < 2 {
		t.Errorf("governor derived no cost bands: %+v", g)
	}
	on := rows["qcache/zipf-cache-on"].Metrics
	if on["hit_rate"] <= 0 || on["hit_rate"] > 1 {
		t.Errorf("implausible hit rate: %+v", on)
	}
	if on["high_water_bytes"] == 0 || on["high_water_bytes"] > 64<<20 {
		t.Errorf("budget accounting wrong: %+v", on)
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

// BenchmarkLeg is the `go test -bench` front end of the micro legs:
// Leg/<leg>/<row> drives exactly the operation cmd/bench times for that
// row. CI runs it with -benchtime 1x as a compile-and-run smoke.
func BenchmarkLeg(b *testing.B) {
	for _, leg := range Legs {
		if leg.micro == nil {
			continue
		}
		b.Run(leg.Name, func(b *testing.B) {
			spec, err := leg.micro()
			if err != nil {
				b.Fatal(err)
			}
			if spec.close != nil {
				defer spec.close()
			}
			for _, op := range spec.ops {
				b.Run(op.name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if err := op.run(); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}
