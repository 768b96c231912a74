package main

import (
	"encoding/json"
	"flag"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	keysearch "repro"
	"repro/httpapi"
)

// parse runs FromFlags over one command line on a fresh FlagSet.
func parse(t *testing.T, args ...string) (*Config, error) {
	t.Helper()
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(discard{})
	return FromFlags(fs, args)
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// TestFromFlagsKeepsHistoricalNames pins every flag name earlier
// revisions documented: a deployment script written against the loose
// flags must parse unchanged against the consolidated Config.
func TestFromFlagsKeepsHistoricalNames(t *testing.T) {
	cfg, err := parse(t,
		"-addr", ":9090", "-seed", "11", "-db", "", "-ttl", "1m",
		"-max-sessions", "12", "-answer-cache", "4096",
		"-mutable", "-data-dir", "",
		"-max-concurrent", "8", "-max-queue", "16", "-queue-timeout", "2s",
		"-request-timeout", "5s", "-adapt-min", "3",
	)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Addr != ":9090" || cfg.Seed != 11 || cfg.SessionTTL != time.Minute ||
		cfg.MaxSessions != 12 ||
		cfg.AnswerCacheBytes != 4096 || !cfg.Mutable ||
		cfg.MaxConcurrent != 8 || cfg.MaxQueue != 16 ||
		cfg.QueueTimeout != 2*time.Second || cfg.RequestTimeout != 5*time.Second ||
		cfg.AdaptMin != 3 {
		t.Fatalf("parsed config lost a value: %+v", cfg)
	}
}

// TestFlagCount pins the size of the serving surface: a new flag is a
// deliberate decision, not a drive-by.
func TestFlagCount(t *testing.T) {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	if _, err := FromFlags(fs, nil); err != nil {
		t.Fatal(err)
	}
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != 18 {
		t.Fatalf("cmd/serve registers %d flags, want 18", n)
	}
}

// TestAdmissionFlags pins the one-gate semantics: -adapt-min 0 (the
// default) keeps the limit fixed at -max-concurrent, a positive
// -adapt-min hands it to the governor as the floor, and the flags of
// the former second gate no longer parse.
func TestAdmissionFlags(t *testing.T) {
	cfg, err := parse(t, "-max-concurrent", "4", "-adapt-min", "0")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.MaxConcurrent != 4 || cfg.AdaptMin != 0 {
		t.Fatalf("fixed gate: %+v", cfg)
	}
	eng, err := keysearch.DemoMovies(7)
	if err != nil {
		t.Fatal(err)
	}
	// health serves /healthz from a server built with cfg's options.
	health := func(cfg *Config) httpapi.HealthResponse {
		rec := httptest.NewRecorder()
		httpapi.New(eng, cfg.ServerOptions()...).ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		var h httpapi.HealthResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
			t.Fatal(err)
		}
		return h
	}
	if h := health(cfg); h.Adaptive != nil || h.Limits.MaxConcurrent != 4 || h.Limits.AdaptiveMinConcurrent != 0 {
		t.Fatalf("-adapt-min 0 did not give a fixed gate: %+v", h)
	}
	if got := startupLine(cfg, eng); !strings.Contains(got, "admission=static(4)") {
		t.Fatalf("fixed gate startup line: %s", got)
	}

	cfg, err = parse(t, "-max-concurrent", "4", "-adapt-min", "2")
	if err != nil {
		t.Fatal(err)
	}
	if h := health(cfg); h.Adaptive == nil || h.Adaptive.MinLimit != 2 || h.Adaptive.MaxLimit != 4 {
		t.Fatalf("-adapt-min 2 did not start a governor over [2, 4]: %+v", h)
	}
	if got := startupLine(cfg, eng); !strings.Contains(got, "admission=adaptive(2..4)") {
		t.Fatalf("governed gate startup line: %s", got)
	}
	for _, removed := range []string{"-adaptive", "-adapt-max", "-adapt-window"} {
		args := []string{removed}
		if removed != "-adaptive" {
			args = append(args, "1")
		}
		if _, err := parse(t, args...); err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Errorf("%s: err = %v, want an unknown-flag error", removed, err)
		}
	}
}

// TestFromFlagsDefaults pins the zero-argument configuration.
func TestFromFlagsDefaults(t *testing.T) {
	cfg, err := parse(t)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Addr != ":8080" || cfg.Seed != 7 ||
		cfg.AnswerCacheBytes != 0 ||
		cfg.Mutable || cfg.AdaptMin != 0 || cfg.MaxConcurrent != 0 {
		t.Fatalf("defaults drifted: %+v", cfg)
	}
	if opts := cfg.EngineOptions(); len(opts) == 0 {
		t.Fatal("no engine options")
	}
	if opts := cfg.ServerOptions(); len(opts) == 0 {
		t.Fatal("no server options")
	}
}

// TestValidateRejections pins the combinations Validate refuses.
func TestValidateRejections(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-db", "x.dump", "-music"}, "mutually exclusive"},
		{[]string{"-answer-cache", "-1"}, "-answer-cache"},
		{[]string{"-max-concurrent", "-2"}, "-max-concurrent"},
		{[]string{"-adapt-min", "-1", "-max-concurrent", "4"}, "-adapt-min"},
		{[]string{"-adapt-min", "2"}, "-adapt-min needs -max-concurrent"},
		{[]string{"-adapt-min", "8", "-max-concurrent", "4"}, "-adapt-min 8 is above -max-concurrent 4"},
		{[]string{"-slow-query", "-1s"}, "-slow-query"},
	}
	for _, tc := range cases {
		if _, err := parse(t, tc.args...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("args %v: err = %v, want mention of %q", tc.args, err, tc.want)
		}
	}
}

// TestObservabilityFlags pins the flag plumbing of the observability
// stack: the query log and the slow-query dump imply tracing, and every
// knob lands in the Config.
func TestObservabilityFlags(t *testing.T) {
	cfg, err := parse(t, "-trace", "-query-log", "/tmp/ql", "-slow-query", "250ms", "-pprof-addr", ":6060")
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Trace || cfg.QueryLogDir != "/tmp/ql" || cfg.SlowQuery != 250*time.Millisecond ||
		cfg.PprofAddr != ":6060" {
		t.Fatalf("observability flags lost a value: %+v", cfg)
	}

	// -query-log alone implies tracing.
	cfg, err = parse(t, "-query-log", "/tmp/ql")
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Trace {
		t.Fatal("-query-log did not imply -trace")
	}

	// -slow-query alone implies tracing.
	cfg, err = parse(t, "-slow-query", "1ms")
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Trace {
		t.Fatal("-slow-query did not imply -trace")
	}

	// Default: everything off.
	cfg, err = parse(t)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Trace || cfg.QueryLogDir != "" || cfg.SlowQuery != 0 || cfg.PprofAddr != "" {
		t.Fatalf("observability not off by default: %+v", cfg)
	}
}
