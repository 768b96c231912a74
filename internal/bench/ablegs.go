package bench

import (
	"fmt"

	keysearch "repro"
	"repro/httpapi"
	"repro/internal/loadgen"
)

// runQCache measures what the engine-lifetime answer cache
// (internal/qcache) buys on the workload it was built for: a
// Zipf-skewed repeated-query stream — the shape real keyword-search
// logs have. Both rows run the same op stream, at the same concurrency,
// after the same half-step warm-up, over identical data; row retrieval
// is where execution cost lives (the joins a hot answer amortises), so
// the stream leans on it, with search and diversify keeping the other
// paths honest. speedup_vs_cold is cache-on over cache-off throughput;
// both sides warm their score caches first, so the delta is the answer
// cache alone. hit_rate and the resident/high-water bytes prove the
// ratio came from the cache serving hot answers inside its budget, not
// from noise.
func runQCache(env *Env, cfg Config) (LegReport, error) {
	const (
		budget  = 64 << 20
		zipfS   = 1.4
		hotSet  = 16
		workers = 8
	)
	db, dataset, err := env.dataset(cfg.rows())
	if err != nil {
		return LegReport{}, err
	}
	ops, err := loadgen.BuildWorkload(db, loadgen.KindMovies, loadgen.WorkloadConfig{
		Ops: 512, Seed: seed, Mix: loadgen.Mix{Search: 20, Rows: 60, Diversify: 20}, ZipfS: zipfS, HotSet: hotSet,
	})
	if err != nil {
		return LegReport{}, err
	}
	rep := LegReport{Dataset: dataset, Params: map[string]any{
		"workload_ops": len(ops), "workers": workers, "zipf_s": zipfS, "hot_set": hotSet, "budget_bytes": budget,
	}}
	var run *served // the last side measured: cache on
	for _, sd := range []struct {
		name string
		opts []keysearch.Option
	}{
		{"zipf-cache-off", nil},
		{"zipf-cache-on", []keysearch.Option{keysearch.WithAnswerCache(budget)}},
	} {
		env.logf("%s: building engine, warming %v, measuring %v at %d workers...", sd.name, cfg.step()/2, cfg.step(), workers)
		eng, err := loadgen.NewEngine(db, loadgen.KindMovies, sd.opts...)
		if err != nil {
			return LegReport{}, err
		}
		run, err = serve(httpapi.New(eng), cfg.step()/2, loadgen.Options{Ops: ops, Workers: workers, Duration: cfg.step()})
		if err != nil {
			return LegReport{}, err
		}
		if run.res.Errors > 0 {
			return LegReport{}, fmt.Errorf("%s produced %d errors", sd.name, run.res.Errors)
		}
		rep.Rows = append(rep.Rows, loadRow(sd.name, run.res))
	}
	m := rep.Rows[1].Metrics
	if b := rep.Rows[0].Metrics["throughput_rps"]; b > 0 {
		rep.Rows[1].Ratios = map[string]float64{"speedup_vs_cold": m["throughput_rps"] / b}
	}
	was, now := run.before.AnswerCache, run.after.AnswerCache
	if was == nil || now == nil {
		return LegReport{}, fmt.Errorf("cache-on server reported no answer cache")
	}
	if now.HighWaterBytes > budget {
		return LegReport{}, fmt.Errorf("cache high-water %d exceeded budget %d", now.HighWaterBytes, budget)
	}
	m["resident_bytes"], m["high_water_bytes"] = float64(now.ResidentBytes), float64(now.HighWaterBytes)
	if hits, misses := now.Hits-was.Hits, now.Misses-was.Misses; hits+misses > 0 {
		m["hit_rate"] = float64(hits) / float64(hits+misses)
	}
	return rep, nil
}
