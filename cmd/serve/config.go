package main

import (
	"flag"
	"fmt"
	"time"

	keysearch "repro"
	"repro/httpapi"
)

// Config gathers every cmd/serve tunable in one validated struct, so
// the serving topology is assembled from one value instead of two
// dozen loose flag pointers. FromFlags builds it from the command
// line (flag names are unchanged from earlier revisions); tests and
// embedders can populate it directly and call Validate themselves.
type Config struct {
	// Addr is the HTTP listen address.
	Addr string

	// Dataset selection: DBPath serves an Engine.SaveTo dump; otherwise
	// Music picks the lyrics chain schema over movies, generated with
	// Seed.
	Seed   int64
	Music  bool
	DBPath string

	// Session handling for /v1/construct dialogues.
	SessionTTL  time.Duration
	MaxSessions int

	// Engine tuning.
	AnswerCacheBytes int64

	// Mutability and durability.
	Mutable bool
	DataDir string

	// Admission gate: MaxConcurrent slots (0 = no gate), a MaxQueue-deep
	// wait line with a QueueTimeout; AdaptMin > 0 lets the governor
	// self-tune the limit between AdaptMin and MaxConcurrent.
	MaxConcurrent int
	AdaptMin      int
	MaxQueue      int
	QueueTimeout  time.Duration
	// RequestTimeout is the default per-request deadline (0 = none).
	RequestTimeout time.Duration

	// Observability (docs/observability.md). Trace enables per-request
	// tracing; QueryLogDir, when set, streams one JSONL entry per /v1/
	// request there (implies tracing); SlowQuery, when positive, dumps
	// the full trace of any slower request to the server log (implies
	// tracing); PprofAddr, when set, serves net/http/pprof on its own
	// listener, separate from the serving address.
	Trace       bool
	QueryLogDir string
	SlowQuery   time.Duration
	PprofAddr   string
}

// FromFlags registers every serving flag on fs under its historical
// name, parses args, and returns the validated configuration.
func FromFlags(fs *flag.FlagSet, args []string) (*Config, error) {
	c := &Config{}
	fs.StringVar(&c.Addr, "addr", ":8080", "listen address")
	fs.Int64Var(&c.Seed, "seed", 7, "demo dataset generator seed")
	fs.BoolVar(&c.Music, "music", false, "serve the music (lyrics) dataset instead of movies")
	fs.StringVar(&c.DBPath, "db", "", "serve a database dump written by Engine.SaveTo instead of a demo dataset")
	fs.DurationVar(&c.SessionTTL, "ttl", 15*time.Minute, "construction session idle TTL")
	fs.IntVar(&c.MaxSessions, "max-sessions", 1024, "cap on live construction sessions")
	fs.Int64Var(&c.AnswerCacheBytes, "answer-cache", 0, "engine-lifetime answer cache byte budget; hot selections and plan results survive across requests (0 = disabled)")
	fs.BoolVar(&c.Mutable, "mutable", false, "enable live mutations via POST /v1/mutate (snapshot-isolated)")
	fs.StringVar(&c.DataDir, "data-dir", "", "durable state directory: recover it if present, initialise it otherwise")
	fs.IntVar(&c.MaxConcurrent, "max-concurrent", 0, "cap on concurrently executing /v1/ requests (0 = unlimited)")
	fs.IntVar(&c.MaxQueue, "max-queue", 0, "cap on /v1/ requests waiting for a slot; excess shed with 429 (with -max-concurrent)")
	fs.DurationVar(&c.QueueTimeout, "queue-timeout", time.Second, "longest a request may wait for a slot before a 503 shed (with -max-concurrent)")
	fs.DurationVar(&c.RequestTimeout, "request-timeout", 0, "default per-request deadline on /v1/ endpoints, 504 on expiry (0 = none)")
	fs.IntVar(&c.AdaptMin, "adapt-min", 0, "self-tune the concurrency limit between this floor and -max-concurrent (AIMD governor with cost-aware shedding; 0 = fixed limit)")
	fs.BoolVar(&c.Trace, "trace", false, "per-request tracing: X-Trace-Id on every /v1/ response, stage timings recorded through the whole stack")
	fs.StringVar(&c.QueryLogDir, "query-log", "", "directory for the structured JSONL query log (one entry per /v1/ request; implies -trace)")
	fs.DurationVar(&c.SlowQuery, "slow-query", 0, "dump the full trace of /v1/ requests at least this slow to the server log (0 = off; implies -trace)")
	fs.StringVar(&c.PprofAddr, "pprof-addr", "", "serve net/http/pprof on this separate address (empty = off)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// Validate rejects configurations that earlier revisions silently
// misserved: contradictory dataset selectors, negative cache budgets,
// and gate bounds that cannot mean anything.
func (c *Config) Validate() error {
	if c.DBPath != "" && c.Music {
		return fmt.Errorf("-db and -music are mutually exclusive: a dump fixes the dataset")
	}
	if c.AnswerCacheBytes < 0 {
		return fmt.Errorf("-answer-cache must be >= 0, got %d", c.AnswerCacheBytes)
	}
	if c.MaxConcurrent < 0 || c.MaxQueue < 0 || c.AdaptMin < 0 {
		return fmt.Errorf("-max-concurrent, -max-queue and -adapt-min must be >= 0")
	}
	if c.AdaptMin > 0 && c.MaxConcurrent == 0 {
		return fmt.Errorf("-adapt-min needs -max-concurrent as the governor's ceiling")
	}
	if c.AdaptMin > c.MaxConcurrent {
		return fmt.Errorf("-adapt-min %d is above -max-concurrent %d", c.AdaptMin, c.MaxConcurrent)
	}
	if c.SlowQuery < 0 {
		return fmt.Errorf("-slow-query must be >= 0, got %v", c.SlowQuery)
	}
	// The query log and slow-query dump are built on the trace.
	if c.QueryLogDir != "" || c.SlowQuery > 0 {
		c.Trace = true
	}
	return nil
}

// EngineOptions translates the configuration into engine build
// options.
func (c *Config) EngineOptions() []keysearch.Option {
	opts := []keysearch.Option{
		keysearch.WithCoOccurrence(),
		keysearch.WithAnswerCache(c.AnswerCacheBytes),
	}
	if c.Mutable {
		opts = append(opts, keysearch.WithMutations())
	}
	if c.DataDir != "" {
		opts = append(opts, keysearch.WithDurability(c.DataDir))
	}
	return opts
}

// ServerOptions translates the configuration into httpapi options.
// WithAdmission is a no-op at a zero limit, so it is threaded
// unconditionally.
func (c *Config) ServerOptions() []httpapi.Option {
	opts := []httpapi.Option{
		httpapi.WithSessionTTL(c.SessionTTL),
		httpapi.WithMaxSessions(c.MaxSessions),
		httpapi.WithAdmission(httpapi.AdmissionConfig{
			MaxConcurrent: c.MaxConcurrent,
			MinConcurrent: c.AdaptMin,
			MaxQueue:      c.MaxQueue,
			QueueTimeout:  c.QueueTimeout,
		}),
		httpapi.WithRequestTimeout(c.RequestTimeout),
	}
	if c.Trace {
		opts = append(opts, httpapi.WithTracing())
	}
	if c.SlowQuery > 0 {
		opts = append(opts, httpapi.WithSlowQueryLog(c.SlowQuery))
	}
	// The query logger is opened by main (it owns the error handling and
	// the close-on-drain), not here.
	return opts
}
