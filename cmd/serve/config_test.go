package main

import (
	"flag"
	"strings"
	"testing"
	"time"
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
		"-max-sessions", "12", "-parallelism", "2",
		"-score-cache=false", "-exec-cache=true", "-answer-cache", "4096",
		"-mutable", "-data-dir", "", "-checkpoint-interval", "10s",
		"-checkpoint-batches", "64",
		"-max-concurrent", "8", "-max-queue", "16", "-queue-timeout", "2s",
		"-request-timeout", "5s",
		"-adaptive", "-adapt-min", "3", "-adapt-max", "24", "-adapt-window", "250ms",
	)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Addr != ":9090" || cfg.Seed != 11 || cfg.SessionTTL != time.Minute ||
		cfg.MaxSessions != 12 || cfg.Parallelism != 2 || cfg.ScoreCache ||
		!cfg.ExecCache || cfg.AnswerCacheBytes != 4096 || !cfg.Mutable ||
		cfg.CheckpointInterval != 10*time.Second || cfg.CheckpointBatches != 64 ||
		cfg.MaxConcurrent != 8 || cfg.MaxQueue != 16 ||
		cfg.QueueTimeout != 2*time.Second || cfg.RequestTimeout != 5*time.Second ||
		!cfg.Adaptive || cfg.AdaptMin != 3 || cfg.AdaptMax != 24 ||
		cfg.AdaptWindow != 250*time.Millisecond {
		t.Fatalf("parsed config lost a value: %+v", cfg)
	}
	if got := cfg.AdaptCeiling(); got != 24 {
		t.Fatalf("AdaptCeiling = %d, want 24", got)
	}
}

// TestFromFlagsDefaults pins the zero-argument configuration.
func TestFromFlagsDefaults(t *testing.T) {
	cfg, err := parse(t)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Addr != ":8080" || cfg.Seed != 7 ||
		!cfg.ScoreCache || !cfg.ExecCache || cfg.AnswerCacheBytes != 0 ||
		cfg.Mutable || cfg.Adaptive || cfg.MaxConcurrent != 0 {
		t.Fatalf("defaults drifted: %+v", cfg)
	}
	if got := cfg.AdaptCeiling(); got != 0 {
		t.Fatalf("AdaptCeiling with governor off = %d, want 0", got)
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
		{[]string{"-answer-cache", "1024", "-exec-cache=false"}, "-exec-cache"},
		{[]string{"-max-concurrent", "-2"}, "-max-concurrent"},
		{[]string{"-adaptive", "-adapt-min", "0"}, "-adapt-min"},
		{[]string{"-adaptive", "-adapt-min", "8", "-adapt-max", "4"}, "-adapt-max"},
		{[]string{"-checkpoint-batches", "0"}, "-checkpoint"},
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
