// Command bench runs the overload leg of internal/bench
// (docs/benchmarks.md), optionally writes the report, and optionally
// guards it against a committed baseline.
//
//	go run ./cmd/bench [-quick] [-out BENCH.json] [-compare BENCH.json]
//
// At full size the leg generates a million-row dataset and runs for
// minutes; -quick shrinks it to CI size.
//
// With -compare, the baseline is read into memory before anything is
// measured — so a bad path fails fast, and -out may name the same file —
// and the run exits non-zero when a ratio fell more than bench.Tolerance
// below the baseline's (bench.Compare). Without -out nothing is written,
// so a guard run leaves the tree clean.
package main

import (
	"flag"
	"log"

	"repro/internal/bench"
)

func main() {
	quick := flag.Bool("quick", false, "run at CI size")
	out := flag.String("out", "", "write the report to this file (default: write nothing)")
	compare := flag.String("compare", "", "baseline BENCH.json to guard the run against")
	flag.Parse()

	var base *bench.Report
	if *compare != "" {
		var err error
		if base, err = bench.Load(*compare); err != nil {
			log.Fatal(err)
		}
	}

	rep, err := bench.Run(bench.Config{Quick: *quick}, log.Printf)
	if err != nil {
		log.Fatal(err)
	}
	if *out != "" {
		if err := rep.Write(*out); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", *out)
	}
	if base == nil {
		return
	}
	checks, err := bench.Compare(base, rep)
	if err != nil {
		log.Fatal(err)
	}
	failed := false
	for _, c := range checks {
		log.Print(c)
		failed = failed || c.Failed()
	}
	if failed {
		log.Fatal("benchmark regression guard failed")
	}
}
