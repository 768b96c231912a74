package keysearch

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/relstore"
)

// MutationOp is the kind of one row mutation.
type MutationOp string

// The mutation kinds accepted by Engine.Apply.
const (
	OpInsert MutationOp = "insert"
	OpUpdate MutationOp = "update"
	OpDelete MutationOp = "delete"
)

// Mutation is one row change of an Apply batch. The same DTO drives the
// library API and POST /v1/mutate.
//
// Insert carries the full value list (positionally aligned with the
// table's columns). Update and Delete address the row by its primary-key
// value (Key), which must match exactly one live row; Update carries the
// full replacement value list.
type Mutation struct {
	Op     MutationOp `json:"op"`
	Table  string     `json:"table"`
	Key    string     `json:"key,omitempty"`
	Values []string   `json:"values,omitempty"`
}

// ApplyResult reports a committed mutation batch.
type ApplyResult struct {
	// Epoch is the snapshot epoch the batch committed as; it increases by
	// one per batch and is exposed on /healthz for observability.
	Epoch uint64 `json:"epoch"`
	// Applied is the number of mutations in the batch.
	Applied int `json:"applied"`
}

// ErrMutationsDisabled is returned by Apply on an engine built without
// WithMutations.
var ErrMutationsDisabled = errors.New("keysearch: mutations are disabled; create the engine with WithMutations")

// MutationsEnabled reports whether the engine accepts Apply batches.
func (e *Engine) MutationsEnabled() bool { return e.cfg.mutable }

// Epoch returns the current snapshot epoch: 0 for the freshly built
// engine, incremented by every committed Apply batch.
func (e *Engine) Epoch() uint64 {
	if s := e.current(); s != nil {
		return s.epoch
	}
	return 0
}

// Apply atomically applies a mutation batch to the engine while it
// serves traffic.
//
// The batch is validated and applied in order against the current
// snapshot (later mutations see earlier ones, so one batch may insert a
// row and then update or delete it by key). On any validation error —
// unknown op or table, wrong value count, a key matching zero or
// several live rows, or an insert/re-keying update that would duplicate
// a live primary key — the whole batch is rejected and the engine is
// unchanged.
//
// Incremental maintenance: the relational store's posting lists (which
// carry the inverted index's term statistics) and equality indexes, the
// inverted index's term dictionary, and the ranking model's corpus
// statistics are all patched copy-on-write — only structures the
// changed cell values touch are re-derived, and the memoised score cache
// carries every entry of unaffected attributes over. The result is indistinguishable from rebuilding the engine over
// the post-batch rows (the differential tests enforce byte-identical
// search responses), at a cost proportional to the change, not the
// database.
//
// Isolation: the new snapshot is published with a single atomic pointer
// swap. Requests in flight keep reading the snapshot they pinned on
// entry — a reader can never observe half a batch — and requests
// arriving after Apply returns see the whole batch. Construction
// sessions keep the snapshot they started on. Writers are serialised;
// readers never block.
//
// Durability: on an engine with WithDurability, the batch is appended
// to the write-ahead log — fsynced by default — before the snapshot
// swap, so every batch Apply acknowledged survives a crash and is
// replayed by Open. A batch whose log append fails is not published.
func (e *Engine) Apply(ctx context.Context, muts []Mutation) (*ApplyResult, error) {
	if !e.built {
		return nil, fmt.Errorf("keysearch: call Build before applying mutations")
	}
	if !e.cfg.mutable {
		return nil, ErrMutationsDisabled
	}
	if len(muts) == 0 {
		return nil, fmt.Errorf("keysearch: empty mutation batch")
	}
	e.applyMu.Lock()
	defer e.applyMu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	next, stale, err := e.nextSnapshot(muts)
	if err != nil {
		return nil, err
	}
	if e.dur != nil {
		if err := e.dur.logBatch(next.epoch, muts); err != nil {
			return nil, fmt.Errorf("keysearch: write-ahead log: %w", err)
		}
	}
	e.publish(next, stale)
	if e.dur != nil {
		e.dur.noteBatch(e.cfg.checkpointBatches)
	}
	return &ApplyResult{Epoch: next.epoch, Applied: len(muts)}, nil
}

// nextSnapshot validates the batch against the current snapshot and
// builds its successor copy-on-write, without publishing it. Alongside
// the successor it returns the batch's invalidation set — the stale
// attributes the successor's score cache was rebased on — for the
// answer cache in the publish step.
// Callers hold applyMu (or, during Open's replay, have exclusive
// access).
func (e *Engine) nextSnapshot(muts []Mutation) (*snapshot, []relstore.Attr, error) {
	cur := e.current()
	rmuts := make([]relstore.Mutation, len(muts))
	for i, m := range muts {
		rmuts[i] = relstore.Mutation{Op: relstore.Op(m.Op), Table: m.Table, Key: m.Key, Values: m.Values}
	}
	ndb, changes, err := cur.db.Apply(rmuts)
	if err != nil {
		return nil, nil, fmt.Errorf("keysearch: %w", err)
	}
	nix := cur.ix.Apply(ndb, changes)
	stale := relstore.ChangedAttrs(ndb, changes)
	model := e.newModel(nix, cur.cat)
	model.InheritCache(cur.model, stale)

	next := &snapshot{
		epoch: cur.epoch + 1,
		db:    ndb,
		ix:    nix,
		graph: cur.graph, // schema never changes: shared
		cat:   cur.cat,
		model: model,
	}
	return next, stale, nil
}
