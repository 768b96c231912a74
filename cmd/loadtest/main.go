// Command loadtest drives the keyword-search serving path with the
// mixed loadgen workload and prints latency percentiles, throughput,
// and shed counts. By default it is self-contained: it generates a
// dataset (datagen, deterministic per seed), builds the engine, stands
// up the real HTTP server in-process, and drives it over loopback.
// With -url it drives an external server instead (start one with
// cmd/serve; use matching -rows/-seed so the workload queries hit).
//
// Usage:
//
//	go run ./cmd/loadtest [-rows 100000] [-seed 42] [-music] [-ops 512]
//	                      [-workers 16] [-rate 0] [-duration 10s]
//	                      [-max-concurrent 0] [-max-queue 0]
//	                      [-queue-timeout 1s] [-request-timeout 0]
//	                      [-saturate] [-url http://host:8080] [-json]
//
// -rate > 0 selects open-loop mode (fixed arrival schedule, latencies
// measured from scheduled arrival — coordinated-omission honest);
// otherwise the run is closed-loop with -workers concurrent clients.
// -saturate replaces the single run with a concurrency ramp that
// reports the saturation throughput. The admission flags gate the
// in-process server exactly like cmd/serve's flags gate a real one.
//
// Examples:
//
//	# closed-loop, 100k rows, 16 workers, 10s
//	go run ./cmd/loadtest -rows 100000 -workers 16 -duration 10s
//
//	# find the saturation point of a gated server
//	go run ./cmd/loadtest -rows 100000 -max-concurrent 8 -max-queue 16 -saturate
//
//	# open-loop at 200 req/s against an external server
//	go run ./cmd/serve -addr :8080 &
//	go run ./cmd/loadtest -url http://localhost:8080 -rate 200 -duration 30s
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"time"

	"repro/httpapi"
	"repro/internal/loadgen"
)

func main() {
	rows := flag.Int("rows", 100000, "generated dataset size in rows")
	seed := flag.Int64("seed", 42, "dataset and workload generator seed")
	music := flag.Bool("music", false, "use the music (lyrics) chain schema instead of movies")
	numOps := flag.Int("ops", 512, "distinct workload operations to cycle through")
	workers := flag.Int("workers", 16, "closed-loop concurrency (open-loop: outstanding-request cap)")
	rate := flag.Float64("rate", 0, "open-loop arrival rate in req/s (0 = closed-loop)")
	duration := flag.Duration("duration", 10*time.Second, "run length")
	maxConcurrent := flag.Int("max-concurrent", 0, "gate the server: concurrently executing requests (0 = ungated)")
	maxQueue := flag.Int("max-queue", 0, "gate the server: wait-queue bound")
	queueTimeout := flag.Duration("queue-timeout", time.Second, "gate the server: longest queue wait before a 503 shed")
	requestTimeout := flag.Duration("request-timeout", 0, "server-side default per-request deadline (0 = none)")
	saturate := flag.Bool("saturate", false, "run a saturation ramp instead of a single run")
	url := flag.String("url", "", "drive this external server instead of an in-process one")
	asJSON := flag.Bool("json", false, "print the result as JSON")
	flag.Parse()

	kind := loadgen.KindMovies
	if *music {
		kind = loadgen.KindMusic
	}
	dcfg := loadgen.DatasetConfig{Kind: kind, TargetRows: *rows, Seed: *seed}

	log.Printf("generating %s dataset (~%d rows, seed %d)...", kind, *rows, *seed)
	db, err := loadgen.BuildDataset(dcfg)
	if err != nil {
		log.Fatal(err)
	}
	ops, err := loadgen.BuildWorkload(db, kind, loadgen.WorkloadConfig{Ops: *numOps, Seed: *seed})
	if err != nil {
		log.Fatal(err)
	}

	base := *url
	if base == "" {
		log.Printf("building engine over %d rows...", db.NumRows())
		start := time.Now()
		eng, err := loadgen.BuildEngine(dcfg)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("engine ready in %v (%d tables, %d templates)", time.Since(start).Round(time.Millisecond),
			eng.NumTables(), eng.NumTemplates())
		ts := httptest.NewServer(httpapi.New(eng,
			httpapi.WithAdmission(httpapi.AdmissionConfig{
				MaxConcurrent: *maxConcurrent,
				MaxQueue:      *maxQueue,
				QueueTimeout:  *queueTimeout,
			}),
			httpapi.WithRequestTimeout(*requestTimeout),
		))
		defer ts.Close()
		base = ts.URL
	}

	ctx := context.Background()
	if *saturate {
		sat, err := loadgen.FindSaturation(ctx, loadgen.SaturationOptions{
			Base:         loadgen.Options{BaseURL: base, Ops: ops},
			StepDuration: *duration / 4,
			MaxWorkers:   max(*workers, 8),
		})
		if err != nil {
			log.Fatal(err)
		}
		for _, step := range sat.Steps {
			log.Printf("  %s", step)
		}
		if *asJSON {
			printJSON(sat)
			return
		}
		fmt.Printf("saturation: %.0f req/s at %d workers\n", sat.SaturationRPS, sat.AtWorkers)
		return
	}

	res, err := loadgen.Run(ctx, loadgen.Options{
		BaseURL:  base,
		Ops:      ops,
		Workers:  *workers,
		RateRPS:  *rate,
		Duration: *duration,
	})
	if err != nil {
		log.Fatal(err)
	}
	if *asJSON {
		printJSON(res)
		return
	}
	fmt.Println(res)
	for _, k := range res.SortedKinds() {
		ks := res.PerKind[k]
		fmt.Printf("  %-10s n=%-7d err=%-5d shed=%d/%d 504=%-4d p50=%8.1fms p90=%8.1fms p99=%8.1fms max=%8.1fms\n",
			k, ks.Requests, ks.Errors, ks.Shed429, ks.Shed503, ks.Deadline504, ks.P50MS, ks.P90MS, ks.P99MS, ks.MaxMS)
	}
}

func printJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Fatal(err)
	}
}
