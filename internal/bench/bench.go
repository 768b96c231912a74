// Package bench is the repo's overload harness. Its one leg drives the
// real HTTP serving path past saturation and measures what admission
// control preserves — a gate placed at the knee against the saturation
// goodput, the self-tuning governor against that hand-placed gate —
// inside a single run on a single machine, and records each quotient as
// a named ratio column. A within-run ratio transfers across hosts where
// raw req/s does not, which is what lets Compare guard it on shared CI
// runners. End-to-end performance claims are made with benchmark/
// instead, and the mechanisms whose cost can be counted are pinned by
// exact tier-1 tests (see docs/benchmarks.md); this package answers the
// narrower question "does admission control still pay for itself".
//
// Rows that carry a Ratios entry are tracked by Compare; a row without
// one is a baseline (or context) row by shape.
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
	// Rows is the dataset size (default 1,000,000; quick 25,000).
	Rows int
	// Step is one saturation-ramp step; the open-loop and overload rows
	// run twice it (default 5s; quick 700ms).
	Step time.Duration
	// Window is the admission governor's control window (default 500ms;
	// quick 200ms).
	Window time.Duration
	// Wrap, when set, wraps the admitted handler of every server the
	// leg stands up (httpapi.WithHandlerWrapper). The smoke test
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

// seed fixes dataset and workload generation.
const seed = 42

// LegName is the name of the one leg, as BENCH.json records it, and
// Tolerance the relative drop below a committed ratio that Compare fails
// on: a seconds-long closed-loop run on a shared runner is that noisy.
const (
	LegName   = "overload"
	Tolerance = 0.5
)

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
	for _, m := range []string{"goodput_rps", "p50_ms", "p99_ms"} {
		if v, ok := r.Metrics[m]; ok {
			fmt.Fprintf(&sb, "  %s %.6g", m, v)
		}
	}
	return sb.String()
}

func sortedKeys(m map[string]float64) []string { return slices.Sorted(maps.Keys(m)) }

// Run measures the overload leg; progress lines go to logf.
func Run(cfg Config, logf func(format string, args ...any)) (*Report, error) {
	logf("leg %s (quick=%v)...", LegName, cfg.Quick)
	lr, err := runOverload(cfg, logf)
	if err != nil {
		return nil, fmt.Errorf("bench: leg %s: %w", LegName, err)
	}
	lr.Name, lr.Quick = LegName, cfg.Quick
	for _, r := range lr.Rows {
		logf("  %s", r)
	}
	return &Report{
		Schema:      Schema,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Host:        Host{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)},
		Legs:        []LegReport{lr},
	}, nil
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
