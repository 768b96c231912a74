package bench

import (
	"fmt"

	keysearch "repro"
	"repro/internal/loadgen"
	"repro/internal/relstore"
)

// runQCache measures what the engine-lifetime answer cache
// (internal/qcache) buys on the workload it was built for: a
// Zipf-skewed repeated-query stream — the shape real keyword-search
// logs have. speedup_vs_cold is cache-on over cache-off throughput;
// both sides warm their score caches first, so the delta is the answer
// cache alone. hit_rate and the resident/high-water bytes prove the
// ratio came from the cache serving hot answers inside its budget, not
// from noise.
func runQCache(env *Env, cfg Config) (LegReport, error) {
	const (
		budget = 64 << 20
		zipfS  = 1.4
		hotSet = 16
	)
	rep, on, err := abRows(env, cfg, loadgen.WorkloadConfig{ZipfS: zipfS, HotSet: hotSet}, "speedup_vs_cold",
		side{"zipf-cache-off", plainEngine},
		side{"zipf-cache-on", func(db *relstore.Database) (keysearch.Searcher, error) {
			return loadgen.NewEngine(db, loadgen.KindMovies, keysearch.WithAnswerCache(budget))
		}})
	if err != nil {
		return LegReport{}, err
	}
	rep.Params["zipf_s"], rep.Params["hot_set"], rep.Params["budget_bytes"] = zipfS, hotSet, budget
	was, now := on.before.AnswerCache, on.after.AnswerCache
	if was == nil || now == nil {
		return LegReport{}, fmt.Errorf("cache-on server reported no answer cache")
	}
	if now.HighWaterBytes > budget {
		return LegReport{}, fmt.Errorf("cache high-water %d exceeded budget %d", now.HighWaterBytes, budget)
	}
	m := rep.Rows[1].Metrics
	m["resident_bytes"], m["high_water_bytes"] = float64(now.ResidentBytes), float64(now.HighWaterBytes)
	if hits, misses := now.Hits-was.Hits, now.Misses-was.Misses; hits+misses > 0 {
		m["hit_rate"] = float64(hits) / float64(hits+misses)
	}
	return rep, nil
}

// shardCount is the sharded side's shard count.
const shardCount = 4

// runShard measures what the scatter-gather topology (internal/shard,
// keysearch.ShardedEngine) buys over single-process serving.
// speedup_vs_1shard is sharded over single-process throughput. Because
// the shards of one request run concurrently, the ratio depends on free
// cores: with headroom it can exceed 1 (the enumeration splits across
// shards); on a loaded host it sits below 1 by the coordinator's
// scatter/merge overhead — responses are byte-identical either way,
// which the differential tests pin. scatters and merged_results prove
// the sharded side exercised the coordinator rather than a fast path.
func runShard(env *Env, cfg Config) (LegReport, error) {
	rep, sharded, err := abRows(env, cfg, loadgen.WorkloadConfig{}, "speedup_vs_1shard",
		side{"serve-1shard", plainEngine},
		side{fmt.Sprintf("serve-%dshard", shardCount), func(db *relstore.Database) (keysearch.Searcher, error) {
			eng, err := loadgen.NewEngine(db, loadgen.KindMovies)
			if err != nil {
				return nil, err
			}
			return keysearch.NewShardedEngine(shardCount, eng)
		}})
	if err != nil {
		return LegReport{}, err
	}
	rep.Params["shards"] = shardCount
	was, now := sharded.before.Shards, sharded.after.Shards
	if was == nil || now == nil {
		return LegReport{}, fmt.Errorf("sharded server reported no shards block")
	}
	scatters, merged := now.Scatters-was.Scatters, now.MergedResults-was.MergedResults
	if scatters == 0 || merged == 0 {
		return LegReport{}, fmt.Errorf("sharded side never scattered (scatters=%d merged=%d) — measurement is vacuous", scatters, merged)
	}
	m := rep.Rows[1].Metrics
	m["scatters"], m["merged_results"] = float64(scatters), float64(merged)
	return rep, nil
}
