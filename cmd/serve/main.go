// Command serve runs the keyword-search engine as an HTTP JSON service
// over one of the bundled demo datasets (or a database dump written by
// Engine.SaveTo), optionally persisted in a durable state directory.
//
// Usage:
//
//	go run ./cmd/serve [-addr :8080] [-seed N] [-music] [-db dump] [-ttl 15m]
//	                   [-mutable] [-data-dir DIR] [-answer-cache BYTES]
//	                   [-max-concurrent N] [-max-queue N] [-queue-timeout 1s]
//	                   [-adapt-min N] [-request-timeout 5s]
//	                   [-trace] [-query-log DIR] [-slow-query 100ms] [-pprof-addr :6060]
//
// Every flag lands in one validated Config (see config.go), so an
// inconsistent combination — -db with -music, -adapt-min above
// -max-concurrent — fails at startup instead of misserving.
//
// -answer-cache gives the engine-lifetime materialized answer cache a
// byte budget (0, the default, disables it): hot keyword-bag selections
// and candidate-network results are shared across requests, invalidated
// incrementally by mutation batches, persisted at checkpoint, and
// restored warm on recovery. /healthz reports its occupancy and hit
// counters; see docs/qcache.md.
//
// The overload protection of the serving path is one admission gate
// (docs/admission.md): -max-concurrent bounds requests executing at
// once, -max-queue bounds the wait line (excess is shed with 429,
// waits past -queue-timeout with 503, both with Retry-After), and
// -request-timeout gives every /v1/ request a default deadline that
// propagates through the engine and maps to 504. -adapt-min N hands
// the limit to the AIMD governor, which self-tunes it between N and
// -max-concurrent from windowed p99 observations and, under queue
// pressure, sheds the estimated-heaviest waiters first. All are off by
// default; /healthz reports every configured limit in its nested
// "limits" object, plus controller state and shed counters.
//
// Observability (docs/observability.md): GET /metrics always serves the
// Prometheus text exposition of the request histograms and serving
// counters. -trace adds a per-request trace (X-Trace-Id on every /v1/
// response, stage timings through parse → interpret → rank →
// execute); -query-log DIR streams one JSONL entry per request — keywords,
// the served interpretation, timings, cost, outcome — to a bounded
// async, size-rotated log; -slow-query dumps the full trace tree of
// requests over the threshold; -pprof-addr serves net/http/pprof on a
// separate listener. The latter two imply -trace.
//
// Quickstart:
//
//	go run ./cmd/serve -mutable -data-dir ./state &
//	curl -s localhost:8080/v1/search -d '{"query":"hanks","k":3}'
//	curl -s localhost:8080/v1/mutate -d '{"mutations":[{"op":"insert","table":"actor","values":["a9001","Nora Ephron"]}]}'
//	curl -s -X POST localhost:8080/v1/checkpoint
//	kill %1   # graceful: drains HTTP, checkpoints, closes the WAL
//	go run ./cmd/serve -mutable -data-dir ./state   # recovers: no rebuild
//
// With -data-dir the boot is open-or-build: an existing state directory
// is recovered (snapshot + write-ahead-log tail, surviving crashes mid-
// write), an empty one is initialised from the selected dataset. On
// SIGINT/SIGTERM the server drains in-flight requests, runs a final
// checkpoint, and closes the log, so the next boot reads one snapshot
// and replays nothing.
//
// See package repro/httpapi for the endpoint and session protocol,
// docs/mutations.md for the live-mutation snapshot model, and
// docs/persistence.md for the durability design.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"

	keysearch "repro"
	"repro/httpapi"
	"repro/internal/qlog"
)

func main() {
	cfg, err := FromFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}

	eng, err := buildEngine(cfg)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("engine ready: %d tables, %d rows, %d query templates, mutable %v, durable %v (epoch %d)",
		eng.NumTables(), eng.NumRows(), eng.NumTemplates(), eng.MutationsEnabled(),
		eng.Durable(), eng.Epoch())
	if stats, ok := eng.AnswerCacheStats(); ok {
		log.Printf("answer cache: budget %d bytes, %d entries restored (%d bytes resident)",
			stats.BudgetBytes, stats.Entries, stats.ResidentBytes)
	}

	srvOpts := cfg.ServerOptions()
	if cfg.QueryLogDir != "" {
		qlogger, err := qlog.Open(cfg.QueryLogDir, qlog.Options{})
		if err != nil {
			log.Fatalf("query log: %v", err)
		}
		srvOpts = append(srvOpts, httpapi.WithQueryLog(qlogger))
	}
	srv := httpapi.New(eng, srvOpts...)
	log.Print(startupLine(cfg, eng))
	if cfg.PprofAddr != "" {
		go servePprof(cfg.PprofAddr)
	}
	httpSrv := newHTTPServer(cfg.Addr, logRequests(srv))

	// Graceful drain: stop accepting, finish in-flight requests, then
	// flush durability (final checkpoint + WAL close) before exiting.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		log.Printf("shutting down: draining HTTP...")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Printf("http shutdown: %v", err)
		}
		// The query log closes after the HTTP drain, so entries for the
		// last in-flight requests are flushed, not dropped.
		if err := srv.Close(); err != nil {
			log.Printf("query log close: %v", err)
		}
		if eng.Durable() {
			log.Printf("shutting down: final checkpoint + closing WAL...")
		}
		if err := eng.Close(); err != nil {
			log.Printf("engine close: %v", err)
		}
	}()

	log.Printf("serving on %s (try: curl -s localhost%s/v1/search -d '{\"query\":\"hanks\",\"k\":3}')",
		cfg.Addr, cfg.Addr)
	if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-done
	log.Printf("bye")
}

// buildEngine implements open-or-build: recover the state directory
// when it holds a snapshot, otherwise build from the dump or demo
// dataset (durably when -data-dir is set, so the next boot recovers).
func buildEngine(cfg *Config) (*keysearch.Engine, error) {
	opts := cfg.EngineOptions()
	if cfg.DataDir != "" {
		eng, err := keysearch.Open(cfg.DataDir, opts...)
		if err == nil {
			log.Printf("recovered state directory %s (replaying WAL tail of %d batches)",
				cfg.DataDir, eng.PendingWALBatches())
			return eng, nil
		}
		if !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
		log.Printf("state directory %s is empty: building from dataset", cfg.DataDir)
	}
	switch {
	case cfg.DBPath != "":
		f, err := os.Open(cfg.DBPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return keysearch.Load(f, opts...)
	case cfg.Music:
		// The 5-table chain schema needs join paths of length 5.
		return keysearch.DemoMusicWith(cfg.Seed, opts...)
	default:
		return keysearch.DemoMoviesWith(cfg.Seed, opts...)
	}
}

// startupLine renders the one structured key=value line that pins down
// what this process is: dataset size, limits, data location, observability
// posture, and the build that produced the binary. Operators grep for
// "serve:" to reconstruct a deployment from its logs alone.
func startupLine(cfg *Config, eng *keysearch.Engine) string {
	goVersion, revision := "", ""
	if info, ok := debug.ReadBuildInfo(); ok {
		goVersion = info.GoVersion
		for _, kv := range info.Settings {
			if kv.Key == "vcs.revision" {
				revision = kv.Value
			}
		}
	}
	admission := "off"
	switch {
	case cfg.AdaptMin > 0:
		admission = fmt.Sprintf("adaptive(%d..%d)", cfg.AdaptMin, cfg.MaxConcurrent)
	case cfg.MaxConcurrent > 0:
		admission = fmt.Sprintf("static(%d)", cfg.MaxConcurrent)
	}
	return fmt.Sprintf("serve: addr=%s rows=%d mutable=%v durable=%v data_dir=%q "+
		"answer_cache_bytes=%d admission=%s request_timeout=%v trace=%v query_log=%q slow_query=%v pprof=%q "+
		"go=%q vcs_revision=%q",
		cfg.Addr, eng.NumRows(), cfg.Mutable, eng.Durable(), cfg.DataDir,
		cfg.AnswerCacheBytes, admission, cfg.RequestTimeout, cfg.Trace, cfg.QueryLogDir, cfg.SlowQuery,
		cfg.PprofAddr, goVersion, revision)
}

// Connection timeouts of the serving listener. A client gets
// readHeaderTimeout to send its request line and headers and readTimeout
// for the whole request (bodies are capped at 1 MiB by httpapi); a
// keep-alive connection may sit idle between requests for idleTimeout.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = time.Minute
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer builds the serving listener's server, so that no client
// can hold a connection open forever by sending slowly or not at all.
// WriteTimeout stays unset: request deadlines (-request-timeout or the
// client's own) already bound handler time, and a write timeout would
// cut off legitimate long /v1/rows responses at 1M rows.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// servePprof stands the net/http/pprof handlers up on their own
// listener, so profiling traffic never competes with (or leaks onto)
// the serving address.
func servePprof(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	log.Printf("pprof listening on %s (try: go tool pprof http://localhost%s/debug/pprof/profile)", addr, addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		log.Printf("pprof server: %v", err)
	}
}

// logRequests is a minimal access log.
func logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		log.Printf("%s %s %s", r.Method, r.URL.Path, time.Since(start).Round(time.Microsecond))
	})
}
