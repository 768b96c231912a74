package keysearch

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/relstore"
	"repro/internal/shard"
	"repro/internal/trace"
)

// ShardedEngine serves one engine's data scatter-gather across n logical
// shards: every row is hash-assigned to a shard (shard.Owner), plan
// execution fans each candidate network's enumeration out across the
// shards' owned root rows, and a coordinator merges the partial streams
// back in rank order. Responses are byte-identical to the wrapped
// engine's at any shard count — sharding changes how answers are
// computed, never which answers are produced (docs/sharding.md gives
// the determinism argument).
//
// Snapshots are shared, not copied: the tables, posting lists, and
// equality indexes of one immutable snapshot serve all shards (each
// shard still gets its own per-request SelectionCache view and its own
// counters). Mutations route through the coordinator: one Apply batch
// commits once under one epoch — so WAL records stay gap-checkable and
// Open-based recovery is unchanged — while the coordinator partitions
// the batch's physical change log per shard to keep per-shard row
// accounting in step with that shared epoch.
type ShardedEngine struct {
	eng   *Engine
	n     int
	stats *shard.Stats

	// rcMu guards the per-shard row-count cache. Counts are keyed to the
	// snapshot *pointer*, not the epoch: checkpoint compaction rewrites
	// RowIDs at an unchanged logical state, so only pointer identity
	// proves the counts describe the current physical rows. Apply keeps
	// the cache warm incrementally via the engine's apply observer;
	// anything else (compaction, first use) falls back to a full scan.
	rcMu     sync.Mutex
	rcSnap   *snapshot
	rcCounts []int
}

// NewShardedEngine wraps a built engine in an n-shard scatter-gather
// coordinator. n = 1 is a valid degenerate topology (single shard
// behind the coordinator path, used by the differential tests); the
// wrapped engine must not be wrapped by another coordinator.
func NewShardedEngine(n int, eng *Engine) (*ShardedEngine, error) {
	if n < 1 {
		return nil, fmt.Errorf("keysearch: shard count must be >= 1, got %d", n)
	}
	if eng == nil {
		return nil, fmt.Errorf("keysearch: NewShardedEngine requires an engine")
	}
	if eng.applyObserver != nil {
		return nil, fmt.Errorf("keysearch: engine is already coordinated")
	}
	se := &ShardedEngine{eng: eng, n: n, stats: shard.NewStats(n)}
	eng.applyObserver = se.observeApply
	return se, nil
}

// OpenSharded recovers a durable engine from dir (snapshot + WAL
// replay, exactly as Open) and serves it through an n-shard
// coordinator. Durability is a property of the underlying engine, so a
// directory written by a single-process engine restores behind any
// shard count and vice versa.
func OpenSharded(dir string, n int, opts ...Option) (*ShardedEngine, error) {
	eng, err := Open(dir, opts...)
	if err != nil {
		return nil, err
	}
	se, err := NewShardedEngine(n, eng)
	if err != nil {
		eng.Close()
		return nil, err
	}
	return se, nil
}

// Engine returns the wrapped single-process engine.
func (se *ShardedEngine) Engine() *Engine { return se.eng }

// NumShards returns the coordinator's shard count.
func (se *ShardedEngine) NumShards() int { return se.n }

// provider builds the request-scoped scatter-gather executor — the
// execProvider the coordinator injects into the engine's request flow
// in place of the local one. Under tracing the answer-cache view is
// wrapped for hit counting, the executor records per-shard busy time,
// and the request is annotated with its fan-out; with tracing off all
// three vanish.
func (se *ShardedEngine) provider(ctx context.Context, s *snapshot, view relstore.SharedStore) relstore.PlanExecutor {
	tr := trace.FromContext(ctx)
	if tr != nil {
		tr.Annotate("shard_fanout", strconv.Itoa(se.n))
	}
	return shard.NewExec(s.db, se.n, tracedView(view, tr), !se.eng.cfg.execCacheOff, se.stats).Traced(tr)
}

// Search implements Searcher with sharded plan execution.
func (se *ShardedEngine) Search(ctx context.Context, req SearchRequest) (*SearchResponse, error) {
	return se.eng.searchExec(ctx, req, se.provider)
}

// Diversify implements Searcher with sharded emptiness probes and
// previews.
func (se *ShardedEngine) Diversify(ctx context.Context, req DiversifyRequest) (*SearchResponse, error) {
	return se.eng.diversifyExec(ctx, req, se.provider)
}

// SearchRows implements Searcher: top-k wave execution scatters each
// interpretation across the shards and the coordinator merges per-shard
// streams before the waves' rank-order heap merge.
func (se *ShardedEngine) SearchRows(ctx context.Context, req RowsRequest) (*RowsResponse, error) {
	return se.eng.searchRowsExec(ctx, req, se.provider)
}

// Construct implements Searcher. Construction is dialogue over the
// interpretation space — no plan execution — so it delegates unchanged.
func (se *ShardedEngine) Construct(ctx context.Context, req ConstructRequest) (*Construction, error) {
	return se.eng.Construct(ctx, req)
}

// Keywords implements Searcher.
func (se *ShardedEngine) Keywords(prefix string, limit int) []string {
	return se.eng.Keywords(prefix, limit)
}

// Apply implements Searcher: the batch commits once through the wrapped
// engine — one validation, one WAL record, one epoch increment, one
// snapshot swap — and the registered observer folds the change log into
// the coordinator's per-shard accounting under that shared epoch.
func (se *ShardedEngine) Apply(ctx context.Context, muts []Mutation) (*ApplyResult, error) {
	return se.eng.Apply(ctx, muts)
}

// Checkpoint implements Searcher.
func (se *ShardedEngine) Checkpoint(ctx context.Context) (*CheckpointStats, error) {
	return se.eng.Checkpoint(ctx)
}

// EstimateCost implements Searcher.
func (se *ShardedEngine) EstimateCost(keywords string) int64 {
	return se.eng.EstimateCost(keywords)
}

// SampleQueries implements Searcher.
func (se *ShardedEngine) SampleQueries(n int) []string {
	return se.eng.SampleQueries(n)
}

// Close implements Searcher.
func (se *ShardedEngine) Close() error { return se.eng.Close() }

// Stats implements Searcher: the wrapped engine's block plus the
// coordinator's shards block.
func (se *ShardedEngine) Stats() EngineStats {
	st := se.eng.Stats()
	snap := se.stats.Snapshot()
	ss := &ShardStats{
		Count:         se.n,
		Scatters:      snap.Scatters,
		CountScatters: snap.CountScatters,
		MergedResults: snap.MergedResults,
		Shards:        make([]ShardStat, se.n),
	}
	rows := se.shardRowCounts()
	for i := range ss.Shards {
		ss.Shards[i] = ShardStat{
			Rows:               rows[i],
			Execs:              snap.Shards[i].Execs,
			Results:            snap.Shards[i].Results,
			SelectionHits:      snap.Shards[i].SelectionHits,
			SelectionsComputed: snap.Shards[i].SelectionsComputed,
		}
	}
	st.Shards = ss
	return st
}

// observeApply is the engine's apply observer (runs under applyMu):
// partition the committed batch's change log by row ownership and patch
// the per-shard counts forward from prev's snapshot to next's. When the
// cached counts do not describe prev (never computed, or invalidated by
// compaction), the patch is skipped and the next Stats call recounts.
func (se *ShardedEngine) observeApply(prev, next *snapshot, changes []relstore.RowChange) {
	se.rcMu.Lock()
	defer se.rcMu.Unlock()
	if se.rcSnap != prev || se.rcCounts == nil {
		se.rcSnap = nil
		se.rcCounts = nil
		return
	}
	for _, ch := range changes {
		switch {
		case ch.Old == nil: // insert
			se.rcCounts[shard.Owner(ch.RowID, se.n)]++
		case ch.New == nil: // delete
			se.rcCounts[shard.Owner(ch.RowID, se.n)]--
		}
	}
	se.rcSnap = next
}

// shardRowCounts returns the live-row count each shard owns under the
// current snapshot, recounting only when the cached counts describe a
// different snapshot pointer.
func (se *ShardedEngine) shardRowCounts() []int {
	s := se.eng.current()
	out := make([]int, se.n)
	if s == nil {
		return out
	}
	se.rcMu.Lock()
	defer se.rcMu.Unlock()
	if se.rcSnap != s {
		counts := make([]int, se.n)
		for _, t := range s.db.Tables() {
			for id := range t.Rows() {
				counts[shard.Owner(id, se.n)]++
			}
		}
		se.rcSnap = s
		se.rcCounts = counts
	}
	copy(out, se.rcCounts)
	return out
}
