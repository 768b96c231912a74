// Command bench runs legs of the mechanism-ratio harness
// (internal/bench, docs/benchmarks.md), optionally writes the report,
// and optionally guards it against a committed baseline.
//
//	go run ./cmd/bench [-legs mutate,durable,...|all] [-quick] [-out BENCH.json] [-compare BENCH.json]
//
// -legs defaults to the two micro legs (mutate, durable),
// which finish in well under a minute; the HTTP legs (overload, qcache)
// generate a million-row dataset and run for minutes at full size, so
// they are asked for by name or with "all". -quick shrinks the HTTP legs
// to CI size.
//
// With -compare, the baseline is read into memory before anything is
// measured — so a bad path fails fast, and -out may name the same file —
// and the run exits non-zero when a ratio of a selected leg fell more
// than that leg's tolerance below the baseline's (bench.Compare).
// Without -out nothing is written, so a guard run leaves the tree clean.
package main

import (
	"flag"
	"log"
	"slices"

	"repro/internal/bench"
)

func main() {
	legList := flag.String("legs", "mutate,durable", "comma-separated legs to run, or all")
	quick := flag.Bool("quick", false, "run the HTTP legs at CI size")
	out := flag.String("out", "", "write the report to this file (default: write nothing)")
	compare := flag.String("compare", "", "baseline BENCH.json to guard the selected legs against")
	flag.Parse()

	legs, err := bench.Select(*legList)
	if err != nil {
		log.Fatal(err)
	}
	var base *bench.Report
	if *compare != "" {
		if base, err = bench.Load(*compare); err != nil {
			log.Fatal(err)
		}
		// Guard the selected legs only; a selected leg the baseline has
		// never recorded is a mistake, not a pass.
		base.Legs = slices.DeleteFunc(base.Legs, func(bl bench.LegReport) bool {
			return !slices.ContainsFunc(legs, func(l bench.Leg) bool { return l.Name == bl.Name })
		})
		if len(base.Legs) != len(legs) {
			log.Fatalf("baseline %s lacks some of the selected legs (%s)", *compare, *legList)
		}
	}

	rep, err := bench.RunLegs(bench.NewEnv(log.Printf), legs, bench.Config{Quick: *quick})
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
