// Package bench is the repo's one mechanism-ratio harness. Each leg of
// the registry measures one mechanism against the path it replaces —
// compiled plans vs scans, Apply vs rebuild, recovery vs build, the
// answer cache on vs off, the admission governor vs a hand-placed gate,
// wave-parallel top-k execution vs sequential — inside a single run on a
// single machine, and records the quotient as a named ratio column. A within-run ratio transfers across hosts where raw
// ns/op and req/s do not, which is what lets Compare guard it on shared
// CI runners. End-to-end performance claims are made with benchmark/
// instead (see docs/benchmarks.md); this package answers the narrower
// question "does this mechanism still pay for itself".
//
// Adding a leg is one entry in Legs: a name, the tolerance its ratios
// are guarded with, and a Run function returning rows. Rows that carry
// a Ratios entry are tracked by Compare; a row without one is a
// baseline (or context) row by shape.
package bench

import (
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/loadgen"
	"repro/internal/relstore"
)

// Schema is the version of the BENCH.json shape. The one-file-per-grid
// reports written before the harness was unified carry no schema field
// and are rejected by Load.
const Schema = 1

// Config sizes one invocation. The zero value is the full-size run;
// Quick is the CI size. The remaining fields exist for the package's
// own smoke test, which must finish in seconds.
type Config struct {
	Quick bool
	// Rows is the HTTP legs' dataset size (default 1,000,000; quick 25,000).
	Rows int
	// Step is one saturation-ramp step and one measured qcache run;
	// warm-ups run half of it, overload runs twice it (default 5s; quick
	// 700ms).
	Step time.Duration
	// Window is the admission governor's control window (default 500ms;
	// quick 200ms).
	Window time.Duration
	// Wrap, when set, wraps the admitted handler of every server the
	// overload leg stands up (httpapi.WithHandlerWrapper). The smoke test
	// adds a blocking service time with it, so admitted requests overlap
	// and the gates engage on any scheduler, one core included.
	Wrap func(http.Handler) http.Handler
}

// sized resolves one size: an explicit setting, else the quick or the
// full default.
func sized[T int | time.Duration](c Config, set, quick, full T) T {
	switch {
	case set > 0:
		return set
	case c.Quick:
		return quick
	}
	return full
}

func (c Config) rows() int           { return sized(c, c.Rows, 25000, 1000000) }
func (c Config) step() time.Duration { return sized(c, c.Step, 700*time.Millisecond, 5*time.Second) }
func (c Config) window() time.Duration {
	return sized(c, c.Window, 200*time.Millisecond, 500*time.Millisecond)
}

// rampWorkers bounds the saturation ramp and is the governor's
// concurrency ceiling.
func (c Config) rampWorkers() int { return sized(c, 0, 16, 128) }

// Env is what the legs of one invocation share: the progress sink and
// the generated HTTP dataset, which at a million rows costs more to
// build than any single leg costs to measure.
type Env struct {
	logf func(format string, args ...any)
	// Builds counts dataset generations, so a test can pin that legs
	// share one.
	Builds int
	db     *relstore.Database
	dbRows int
}

// NewEnv returns an environment whose progress lines go to logf (nil
// discards them).
func NewEnv(logf func(format string, args ...any)) *Env {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Env{logf: logf}
}

// seed fixes dataset and workload generation for every HTTP leg.
const seed = 42

// dataset returns the generated movies database of about target rows,
// building it on first use and whenever a leg asks for a different size
// (only the smoke test does). Engines built over it never modify it:
// Apply is copy-on-write from the first batch.
func (e *Env) dataset(target int) (*relstore.Database, string, error) {
	if e.db == nil || e.dbRows != target {
		e.logf("building %d-row movies dataset (seed %d)...", target, seed)
		db, err := loadgen.BuildDataset(loadgen.DatasetConfig{Kind: loadgen.KindMovies, TargetRows: target, Seed: seed})
		if err != nil {
			return nil, "", err
		}
		e.db, e.dbRows = db, target
		e.Builds++
	}
	return e.db, fmt.Sprintf("datagen movies target=%d seed=%d rows=%d", target, seed, e.db.NumRows()), nil
}

// Leg is one registered measurement.
type Leg struct {
	Name string
	// Tolerance is the relative drop below the committed ratio that
	// Compare fails on; 0 records the leg without guarding it.
	Tolerance float64
	Run       func(*Env, Config) (LegReport, error)
	// micro is set on the testing.Benchmark legs so BenchmarkLeg can
	// drive the same operations under `go test -bench`.
	micro func(Config) (*microSpec, error)
}

// Legs is the registry, in report order. The micro legs time one
// operation per row through testing.Benchmark and are guarded at 25%;
// the HTTP legs drive a real server for seconds per row and are guarded
// at 50%, because a short closed-loop run on a shared runner is that
// noisy. topk's ratios depend on how many cores are free, so it is
// recorded and never guarded.
var Legs = []Leg{
	microLeg("topk", 0, topkOps),
	microLeg("executor", 0.25, executorOps),
	microLeg("mutate", 0.25, mutateOps),
	microLeg("durable", 0.25, durableOps),
	{Name: "overload", Tolerance: 0.5, Run: runOverload},
	{Name: "qcache", Tolerance: 0.5, Run: runQCache},
}

// Select resolves a comma-separated leg list ("all" for every leg).
func Select(list string) ([]Leg, error) {
	if list == "all" {
		return Legs, nil
	}
	var out []Leg
	for _, name := range strings.Split(list, ",") {
		i := slices.IndexFunc(Legs, func(l Leg) bool { return l.Name == name })
		if i < 0 {
			return nil, fmt.Errorf("bench: unknown leg %q", name)
		}
		out = append(out, Legs[i])
	}
	return out, nil
}

// Report is the top-level shape of BENCH.json.
type Report struct {
	Schema      int         `json:"schema"`
	GeneratedAt string      `json:"generated_at"`
	Host        Host        `json:"host"`
	Legs        []LegReport `json:"legs"`
}

// Host is the machine shape needed to read absolute numbers, and to
// judge the ratios that depend on free cores.
type Host struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// LegReport is one leg's measurement set.
type LegReport struct {
	Name    string         `json:"name"`
	Quick   bool           `json:"quick"`
	Dataset string         `json:"dataset"`
	Params  map[string]any `json:"params"`
	Rows    []Row          `json:"rows"`
}

// Row is one measured configuration. Ratios holds the guarded,
// machine-transferable columns; a baseline row has none.
type Row struct {
	Name    string             `json:"name"`
	Metrics map[string]float64 `json:"metrics"`
	Ratios  map[string]float64 `json:"ratios,omitempty"`
}

// String renders the row for progress logs: its ratios, then whichever
// of the headline metrics it carries.
func (r Row) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-18s", r.Name)
	for _, col := range sortedKeys(r.Ratios) {
		fmt.Fprintf(&sb, "  %s %.2f", col, r.Ratios[col])
	}
	for _, m := range []string{"ns_per_op", "allocs_per_op", "goodput_rps", "p50_ms", "p99_ms"} {
		if v, ok := r.Metrics[m]; ok {
			fmt.Fprintf(&sb, "  %s %.6g", m, v)
		}
	}
	return sb.String()
}

func sortedKeys(m map[string]float64) []string { return slices.Sorted(maps.Keys(m)) }

// RunLegs measures the given legs in order over one shared Env.
func RunLegs(env *Env, legs []Leg, cfg Config) (*Report, error) {
	rep := &Report{
		Schema:      Schema,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Host:        Host{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)},
	}
	for _, leg := range legs {
		env.logf("leg %s (quick=%v)...", leg.Name, cfg.Quick)
		lr, err := leg.Run(env, cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: leg %s: %w", leg.Name, err)
		}
		lr.Name, lr.Quick = leg.Name, cfg.Quick
		for _, r := range lr.Rows {
			env.logf("  %s", r)
		}
		rep.Legs = append(rep.Legs, lr)
	}
	return rep, nil
}

// Load reads a BENCH.json, rejecting any file of another schema.
func Load(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if rep.Schema != Schema {
		return nil, fmt.Errorf("bench: %s has schema %d, want %d (a per-grid report from before the unified harness carries none and cannot be compared)",
			path, rep.Schema, Schema)
	}
	return &rep, nil
}

// Write stores the report as indented JSON with a trailing newline.
func (r *Report) Write(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
