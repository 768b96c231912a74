// Command benchmark is the repository's one benchmark: it serves the
// movies dataset over loopback HTTP, drives it with two closed-loop
// clients on one of four workloads, checks the answers, and prints the
// end-to-end metrics; with --trace 1 it replays the workload in process
// through a layer chain it assembles itself and prints the per-layer
// ledger instead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// outDir receives result.json, results.jsonl, trace.json and the durable
// state of the engines under test; it carries its own .gitignore.
const outDir = "benchmark/out"

// setUps is how many times a run sets the system up. setup_s is their
// median; the canary runs on the first, the workload on the last.
const setUps = 5

// metricDef names one metric of BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"throughput_rps", "1/s"},
	{"primary_p50_ms", "ms"},
	{"primary_p95_ms", "ms"},
	{"heap_after_setup_mb", "MB"},
	{"setup_s", "s"},
}

var perLayerMetrics = []metricDef{
	{"ledger.ops", "count"},
	{"ledger.traced_ms", "ms"},
	{"ledger.coverage_ratio", "ratio"},
	{"ledger.executor_share", "ratio"},
	{"ledger.executor_share_warm", "ratio"},
	{"ledger.interpret_share", "ratio"},
	{"ledger.qcache_share", "ratio"},
	{"trace_overhead_ratio", "ratio"},
	{"httpapi.self_us_p50", "us"},
	{"httpapi.self_us_p95", "us"},
	{"httpapi.response_bytes", "B"},
	{"engine.glue_ms", "ms"},
	{"query.candidates_us", "us"},
	{"query.interpret_us", "us"},
	{"query.space_size", "count"},
	{"prob.rank_us", "us"},
	{"prob.interpretations_ranked", "count"},
	{"topk.self_ms", "ms"},
	{"topk.plans_executed", "count"},
	{"topk.results_per_plan", "ratio"},
	{"relstore.execute_ms", "ms"},
	{"relstore.execute_calls", "count"},
	{"relstore.count_calls", "count"},
	{"relstore.rows_returned", "count"},
	{"divq.filter_ms", "ms"},
	{"divq.diversify_us", "us"},
	{"divq.nonempty_ratio", "ratio"},
	{"qcache.hit_ratio", "ratio"},
	{"qcache.evictions", "count"},
	{"qcache.invalidations", "count"},
	{"qcache.admission_rejects", "count"},
	{"qcache.resident_mb", "MB"},
	{"qcache.lookup_us", "us"},
	{"construct.ms", "ms"},
	{"apply.ms_p50", "ms"},
	{"apply.ms_p95", "ms"},
	{"durable.wal_bytes_per_batch", "B"},
	{"durable.checkpoint_ms", "ms"},
	{"durable.bytes_on_disk_per_row", "B"},
	{"invindex.estimate_cost_us", "us"},
	{"invindex.keywords_prefix_us", "us"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// host describes where a run was measured. Every BENCH_*.json of this
// repository was recorded on one CPU without saying what that does to a
// parallel pipeline; this block is why a result can be trusted or not.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	OneCPU     bool   `json:"one_cpu"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
}

// record is one run as written to result.json and appended to
// results.jsonl: the report plus everything needed to interpret it.
type record struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Trace       bool    `json:"trace"`
	Seconds     float64 `json:"seconds"`
	Host        host    `json:"host"`
	Clients     int     `json:"clients"`
	DatasetRows int     `json:"dataset_rows"`
	report
	Error string `json:"error,omitempty"`
	// Kinds is the latency summary per op kind, with sample counts; the
	// percentiles that are not end-to-end metrics are here, unguarded.
	Kinds map[string]kindStats `json:"kinds,omitempty"`
	// Info holds what else the run saw: set-up times, digests, answer
	// cache counter deltas over the timed section, durability state.
	Info map[string]any `json:"info,omitempty"`
}

// config is one run's parameters. Only the smoke test sets rows and
// tracedOps to anything but datasetRows and the tracedOps constant.
type config struct {
	w         workload
	seed      int64
	seconds   float64
	trace     bool
	rows      int
	tracedOps int
	host      host
}

// gitCommit names the commit of the checkout the benchmark runs from, or
// "unknown" when that is not a repository, as under the driver. It does
// not let git look for one in a parent directory.
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// stateDir returns a fresh durable-state directory name under outDir.
func stateDir(tag string) string {
	return filepath.Join(outDir, fmt.Sprintf("state-%d-%s", os.Getpid(), tag))
}

// run performs one benchmark run.
func run(cfg config) (record, error) {
	rec := record{
		Workload: cfg.w.name, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds,
		Host: cfg.host, Clients: clients, DatasetRows: cfg.rows, Info: map[string]any{},
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return rec, err
	}
	var err error
	if cfg.trace {
		err = runTraced(cfg, &rec)
	} else {
		err = runTimed(cfg, &rec)
	}
	return rec, err
}

func runTraced(cfg config, rec *record) error {
	res, err := runLedger(cfg, stateDir("trace"))
	if err != nil {
		return err
	}
	rec.Attempted, rec.Failed = res.attempted, res.failed
	if res.err != nil {
		rec.Error = res.err.Error()
	}
	rec.Correct = rec.Failed == 0
	rec.Metrics = map[string]metric{}
	for _, d := range perLayerMetrics {
		rec.Metrics[d.name] = metric{Value: res.metrics[d.name], Unit: d.unit}
	}
	raw, err := json.Marshal(res.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace.json"), raw, 0o644)
}

// prepared is what the repeated set-up leaves for the timed section.
type prepared struct {
	sys       *system   // the last instance, untouched so far
	setupSecs []float64 // every set-up's duration
	heapMB    float64   // live heap after the first set-up
	// invalid is set when the first instance failed a check that covers
	// the whole run; every op of the run then counts as failed.
	invalid error
}

// setUpRepeatedly sets the system up setUps times and keeps the last
// instance. The first, which no timed request ever touches, answers the
// canary and is checked against frozen.json (nil for the smoke test's
// small dataset, which has no frozen digests).
func setUpRepeatedly(cfg config, frz *frozen, rec *record) (prepared, error) {
	var p prepared
	for i := 0; ; i++ {
		runtime.GC()
		s, d, err := setUp(cfg.rows, stateDir(fmt.Sprint("setup", i)))
		if err != nil {
			return p, err
		}
		p.setupSecs = append(p.setupSecs, d.Seconds())
		if i == setUps-1 {
			p.sys = s
			return p, nil
		}
		if i == 0 {
			p.heapMB = heapMB()
			digest := datasetDigest(s.db)
			canary, err := runCanary(s)
			rec.Info["dataset_sha256"], rec.Info["canary_sha256"] = digest, canary
			switch {
			case err != nil:
				p.invalid = err
			case frz != nil && digest != frz.DatasetSHA256:
				p.invalid = fmt.Errorf("dataset_sha256 %s differs from %s: internal/datagen changed the data", digest, frozenPath)
			case frz != nil && canary != frz.CanarySHA256:
				p.invalid = fmt.Errorf("canary_sha256 %s differs from %s: the engine's answers changed", canary, frozenPath)
			}
		}
		if err := s.tearDown(); err != nil {
			return p, err
		}
	}
}

func runTimed(cfg config, rec *record) error {
	w := cfg.w
	var frz *frozen
	if cfg.rows == datasetRows {
		var err error
		if frz, err = loadFrozen(); err != nil {
			return err
		}
	}
	p, err := setUpRepeatedly(cfg, frz, rec)
	if err != nil {
		return err
	}
	sys, invalid := p.sys, p.invalid
	defer sys.tearDown()

	ops := w.build(sys.db, cfg.seed, cfg.seconds)
	digest := opsDigest(ops)
	rec.Info["ops_sha256"] = digest
	if frz != nil && cfg.seed == frozenSeed && invalid == nil && digest != frz.OpsSHA256[w.name] {
		invalid = fmt.Errorf("ops_sha256 %s differs from %s: the generated load changed", digest, frozenPath)
	}
	var check *repeatCheck
	if w.readOnly {
		check = &repeatCheck{first: map[int][32]byte{}}
	}
	if w.warmup > 0 {
		// The warm-up is the head of the op list, sent once and untimed.
		if warm := runLoad(sys.url, ops[:w.warmup], false, time.Hour, check); warm.failed > 0 {
			return fmt.Errorf("warm-up: %w", warm.firstErr)
		}
		ops = ops[w.warmup:]
	}
	before, _ := sys.eng.AnswerCacheStats()
	load := runLoad(sys.url, ops, w.cycle, time.Duration(cfg.seconds*float64(time.Second)), check)
	after, _ := sys.eng.AnswerCacheStats()

	rec.Attempted, rec.Failed = load.attempted, load.failed
	if load.firstErr != nil {
		rec.Error = load.firstErr.Error()
	}
	if w.readOnly {
		// Send a sample of the completed ops again: the reply each got
		// during the run, under a colder cache, must equal the reply now.
		done := min(load.attempted, len(ops))
		var sample []op
		for i := 0; i < done; i += max(1, done/32) {
			sample = append(sample, ops[i])
		}
		again := runLoad(sys.url, sample, false, time.Hour, check)
		rec.Attempted += again.attempted
		rec.Failed += again.failed
		if again.firstErr != nil && rec.Error == "" {
			rec.Error = again.firstErr.Error()
		}
	} else if err := checkDurability(sys, load.ackedKeys); err != nil && invalid == nil {
		invalid = fmt.Errorf("durability: %w", err)
	}
	if invalid != nil {
		// A check that covers the whole run did not hold: every op fails.
		rec.Failed = rec.Attempted
		if rec.Error == "" {
			rec.Error = invalid.Error()
		}
	}
	rec.Correct = rec.Failed == 0

	primary := load.latencies[w.primary]
	values := map[string]float64{
		"throughput_rps":      float64(load.succeeded()) / load.elapsed.Seconds(),
		"primary_p50_ms":      quantileMS(primary, 0.50),
		"primary_p95_ms":      quantileMS(primary, 0.95),
		"heap_after_setup_mb": p.heapMB,
		"setup_s":             median(p.setupSecs),
	}
	rec.Metrics = map[string]metric{}
	for _, d := range endToEndMetrics {
		rec.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	rec.Kinds = map[string]kindStats{}
	for k, lat := range load.latencies {
		if len(lat) > 0 {
			rec.Kinds[kindNames[k]] = summarize(lat)
		}
	}
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	rec.Info["primary_kind"] = kindNames[w.primary]
	rec.Info["timed_seconds"] = load.elapsed.Seconds()
	rec.Info["ops_exhausted"] = load.exhausted
	rec.Info["setup_seconds"] = p.setupSecs
	rec.Info["qcache"] = map[string]any{
		"hits": hits, "misses": misses, "hit_ratio": ratio(hits, hits+misses),
		"evictions":         after.Evictions - before.Evictions,
		"invalidations":     after.Invalidations - before.Invalidations,
		"admission_rejects": after.AdmissionRejects - before.AdmissionRejects,
		"resident_mb":       float64(after.ResidentBytes) / (1 << 20),
	}
	rec.Info["durable"] = map[string]any{
		"acknowledged_batches":  len(load.ackedKeys),
		"last_checkpoint_epoch": sys.eng.LastCheckpointEpoch(),
		"wal_batches_pending":   sys.eng.PendingWALBatches(),
	}
	return nil
}

// writeRecord stores the run as benchmark/out/result.json and appends it
// to the results file that -compare reads.
func writeRecord(rec record, resultsPath string) error {
	pretty, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "result.json"), append(pretty, '\n'), 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(resultsPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSummary lists every metric by name with its unit, and every
// latency line with its sample count, above the final JSON line.
func printSummary(rec record) {
	fmt.Printf("workload %s seed %d trace %v: %d attempted, %d failed\n", rec.Workload, rec.Seed, rec.Trace, rec.Attempted, rec.Failed)
	if rec.Error != "" {
		fmt.Printf("  first error: %s\n", rec.Error)
	}
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-30s %14.4f %s\n", name, rec.Metrics[name].Value, rec.Metrics[name].Unit)
	}
	for k := opKind(0); k < numKinds; k++ {
		if s, ok := rec.Kinds[kindNames[k]]; ok {
			fmt.Printf("  %-10s n=%-7d p50=%.3fms p90=%.3fms p95=%.3fms p99=%.3fms max=%.3fms\n",
				kindNames[k], s.Samples, s.P50MS, s.P90MS, s.P95MS, s.P99MS, s.MaxMS)
		}
	}
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run: search.interp, rows.fresh, rows.zipf or mixed.write")
		seed         = flag.Int64("seed", frozenSeed, "seed of the generated requests; 43 is held out for claims")
		seconds      = flag.Float64("seconds", 20, "length of the timed section")
		trace        = flag.Int("trace", 0, "1 replays the workload in process and prints the per-layer ledger")
		allowOneCPU  = flag.Bool("allow-one-cpu", false, "run with GOMAXPROCS below 2 and stamp the result one_cpu")
		results      = flag.String("results", filepath.Join(outDir, "results.jsonl"), "file each run is appended to")
		compare      = flag.Bool("compare", false, "compare two results files given as arguments: old.jsonl new.jsonl")
		freeze       = flag.Bool("freeze", false, "rewrite "+frozenPath+" from the current code")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare old.jsonl new.jsonl")
			os.Exit(2)
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if *freeze {
		if err := writeFrozen(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := findWorkload(*workloadName)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workloadName)
		os.Exit(2)
	}
	h := host{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitCommit: gitCommit(),
	}
	if h.GOMAXPROCS < 2 {
		if !*allowOneCPU {
			fmt.Fprintln(os.Stderr, "benchmark: GOMAXPROCS is below 2: two clients and a parallel pipeline cannot be measured on one CPU (-allow-one-cpu overrides)")
			os.Exit(2)
		}
		h.OneCPU = true
	}
	rec, err := run(config{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, rows: datasetRows, tracedOps: tracedOps, host: h})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if err := writeRecord(rec, *results); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	printSummary(rec)
	last, err := json.Marshal(rec.report)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(last))
}

// writeFrozen recomputes the dataset, canary and op-list digests and
// writes frozen.json. Run it only in a change that corrects the
// benchmark, never in one that claims a gain.
func writeFrozen() error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	sys, _, err := setUp(datasetRows, stateDir("freeze"))
	if err != nil {
		return err
	}
	defer sys.tearDown()
	f := frozen{DatasetRows: datasetRows, DatasetSHA256: datasetDigest(sys.db), OpsSeed: frozenSeed, OpsSHA256: map[string]string{}}
	if f.CanarySHA256, err = runCanary(sys); err != nil {
		return err
	}
	for _, w := range workloads {
		f.OpsSHA256[w.name] = opsDigest(w.build(sys.db, frozenSeed, 1))
	}
	raw, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(frozenPath, append(raw, '\n'), 0o644)
}
