package keysearch

import "context"

// Searcher is the serving surface of the keyword-search engine: every
// operation the HTTP layer and the load tools need, with no assumption
// about what executes behind it. *Engine implements it in-process; the
// benchmark's tracing ledger wraps it. Anything that satisfies this
// interface drops into httpapi, cmd/serve, and cmd/loadtest without
// handler changes.
//
// Implementations must be safe for unlimited concurrent use and must
// produce byte-identical responses for the same request over the same
// data.
type Searcher interface {
	// Search ranks the query's structured interpretations (IQP).
	Search(ctx context.Context, req SearchRequest) (*SearchResponse, error)
	// Diversify ranks relevant-and-diverse interpretations (DivQ).
	Diversify(ctx context.Context, req DiversifyRequest) (*SearchResponse, error)
	// SearchRows retrieves the k globally best concrete result rows.
	SearchRows(ctx context.Context, req RowsRequest) (*RowsResponse, error)
	// Construct starts an interactive query-construction session.
	Construct(ctx context.Context, req ConstructRequest) (*Construction, error)
	// Keywords serves prefix autocomplete from the term dictionary.
	Keywords(prefix string, limit int) []string
	// Apply commits a mutation batch (ErrMutationsDisabled when the
	// topology was built immutable).
	Apply(ctx context.Context, muts []Mutation) (*ApplyResult, error)
	// Checkpoint forces a durability checkpoint (ErrDurabilityDisabled
	// on a memory-only topology).
	Checkpoint(ctx context.Context) (*CheckpointStats, error)
	// EstimateCost prices a keyword query for admission control.
	EstimateCost(keywords string) int64
	// SampleQueries returns representative queries for cost calibration.
	SampleQueries(n int) []string
	// Stats reports the health/observability snapshot for /healthz.
	Stats() EngineStats
	// Close releases background resources (durability runtime).
	Close() error
}

// EngineStats is the health snapshot behind /healthz: static serving
// configuration plus the live counters of whichever subsystems are
// enabled. Optional blocks are nil when the
// corresponding subsystem is off.
type EngineStats struct {
	// Mutable reports whether Apply accepts batches; Epoch is the
	// current snapshot epoch.
	Mutable bool
	Epoch   uint64
	// Durable reports whether a WAL/snapshot directory backs the engine;
	// WALBatches and LastCheckpointEpoch describe its recovery state.
	Durable             bool
	WALBatches          int
	LastCheckpointEpoch uint64
	// AnswerCache carries the engine-lifetime answer cache counters, nil
	// when disabled.
	AnswerCache *AnswerCacheStats
}

// Stats implements Searcher for the single-process engine.
func (e *Engine) Stats() EngineStats {
	st := EngineStats{
		Mutable:             e.MutationsEnabled(),
		Epoch:               e.Epoch(),
		Durable:             e.Durable(),
		WALBatches:          e.PendingWALBatches(),
		LastCheckpointEpoch: e.LastCheckpointEpoch(),
	}
	if acs, ok := e.AnswerCacheStats(); ok {
		st.AnswerCache = &acs
	}
	return st
}

// Compile-time check: the engine satisfies the serving surface.
var _ Searcher = (*Engine)(nil)
