package keysearch

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/invindex"
	"repro/internal/qcache"
	"repro/internal/query"
	"repro/internal/relstore"
	"repro/internal/schemagraph"
)

// This file implements the engine's durability subsystem: snapshot
// persistence (SaveSnapshot / OpenSnapshot), the durable state
// directory with its mutation write-ahead log and crash recovery
// (Open), and tombstone-compacting checkpoints (Checkpoint plus the
// background policy gated by WithDurability).
//
// On-disk layout of a state directory (see docs/persistence.md):
//
//	<dir>/snapshot.ksnap   complete engine snapshot (sectioned, CRC'd)
//	<dir>/wal.log          mutation batches since that snapshot
//
// Crash consistency: Apply appends the batch to the WAL (fsync) before
// publishing its snapshot; Checkpoint writes the new snapshot file
// atomically (temp + fsync + rename) before truncating the WAL. A crash
// between those two steps leaves WAL records at or below the snapshot's
// epoch, which recovery skips; a crash mid-append leaves a torn final
// record, which recovery truncates. Open therefore always reconstructs
// exactly the batches Apply acknowledged.

// Snapshot file and WAL names inside a durable state directory.
const (
	snapshotFileName = "snapshot.ksnap"
	walFileName      = "wal.log"
)

// compactRatio is the compaction threshold: Checkpoint rebuilds any
// table whose dead/live row ratio exceeds it without tombstones.
const compactRatio = 0.5

// Section names of the engine snapshot container. OpenSnapshot skips
// any other section, such as those of earlier builds: "datagraph" (the
// tuple graph of the retired data-based baseline), "invindex" (term
// statistics now read from the database section's postings) and "usage"
// (template-usage priors nothing served ever recorded).
const (
	sectionMeta     = "meta"
	sectionDatabase = "database"
	sectionQCache   = "qcache"
)

// ErrDurabilityDisabled is returned by Checkpoint on an engine built
// without WithDurability.
var ErrDurabilityDisabled = errors.New("keysearch: durability is disabled; create the engine with WithDurability or Open")

// durState is the runtime of a durable engine: the open WAL, the
// checkpoint policy goroutine, and the counters /healthz reports.
// Mutating fields are guarded by the engine's applyMu (every writer —
// Apply, Checkpoint, Close — holds it).
type durState struct {
	dir string
	wal *durable.WAL

	// pending counts WAL batches since the last checkpoint; lastCkpt is
	// the epoch of the on-disk snapshot. Both read lock-free by /healthz.
	pending  atomic.Int64
	lastCkpt atomic.Uint64

	// kick wakes the policy goroutine when pending passes the batch
	// bound; stop ends it. stopOnce makes Close idempotent.
	kick     chan struct{}
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// SaveSnapshot serialises the engine's current snapshot — the complete
// physical database (tombstones and RowID high-water marks included)
// with its per-column posting lists, which carry every term statistic
// the ranking model reads — to w as a versioned, per-section
// checksummed container. OpenSnapshot restores it without
// re-running Build, with byte-identical search behaviour. Safe to call
// while the engine serves traffic and applies mutations: the snapshot
// written is the one current at entry.
func (e *Engine) SaveSnapshot(w io.Writer) error {
	s := e.current()
	if s == nil {
		return fmt.Errorf("keysearch: call Build before saving a snapshot")
	}
	// SaveSnapshot runs without the writer lock, so the answer cache may
	// hold entries published for snapshots newer than s; only the locked
	// writers (Build's init, Checkpoint) persist the hot set.
	return e.encodeSnapshot(s, w, false)
}

// encodeSnapshot writes s as a sectioned container. includeCache also
// persists the answer cache's hot set; it is only correct when the
// caller holds applyMu, which guarantees every resident entry is valid
// for exactly the snapshot being written.
func (e *Engine) encodeSnapshot(s *snapshot, w io.Writer, includeCache bool) error {
	sw, err := durable.NewSnapshotWriter(w)
	if err != nil {
		return err
	}

	var meta durable.Enc
	meta.Uvarint(s.epoch)
	meta.Int(e.cfg.maxJoinPath)
	meta.Int(e.cfg.maxTemplates)
	meta.Bool(e.cfg.useCoOccurrence)
	meta.Float(0) // retired ATF smoothing slot: 0 selects prob's default
	meta.Bool(e.cfg.includeSchemaTerms)
	meta.Bool(e.cfg.segmentPhrases)
	threshold := 0.0
	if e.cfg.segmentPhrases {
		threshold = segmentThreshold
	}
	meta.Float(threshold)
	meta.Bool(e.cfg.enableAggregates)
	if err := sw.Section(sectionMeta, meta.Bytes()); err != nil {
		return err
	}

	var db durable.Enc
	s.db.EncodeSnapshot(&db, relstore.EncodeOptions{Physical: true, Postings: true})
	if err := sw.Section(sectionDatabase, db.Bytes()); err != nil {
		return err
	}

	if includeCache && e.qc != nil {
		if err := sw.Section(sectionQCache, e.qc.EncodeSnapshot()); err != nil {
			return err
		}
	}
	return sw.Close()
}

// OpenSnapshot restores an engine from a snapshot written by
// SaveSnapshot. The build shape persisted in the snapshot (join-path
// bound, template cap, co-occurrence, query-syntax flags) is
// authoritative: it overrides the same settings in opts, because the
// persisted answer cache was computed under it and the reopened engine
// must answer as the saved one did. opts supply the deployment knobs
// (answer cache, WithMutations, durability). A snapshot carrying a
// value of a retired option (ATF smoothing other than the default, a
// phrase threshold other than segmentThreshold) is refused.
//
// The restored engine is built and ready; it is memory-only — attaching
// a state directory (write-ahead log, checkpoints) is Open's job.
func OpenSnapshot(r io.Reader, opts ...Option) (*Engine, error) {
	sr, err := durable.NewSnapshotReader(r)
	if err != nil {
		return nil, err
	}
	sections := make(map[string][]byte)
	for {
		name, payload, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("keysearch: open snapshot: %w", err)
		}
		sections[name] = payload
	}

	meta := sections[sectionMeta]
	if meta == nil {
		return nil, fmt.Errorf("keysearch: open snapshot: missing %s section", sectionMeta)
	}
	cfg := newConfig(opts)
	md := durable.NewDec(meta)
	epoch := md.Uvarint()
	cfg.maxJoinPath = md.Int()
	cfg.maxTemplates = md.Int()
	cfg.useCoOccurrence = md.Bool()
	alpha := md.Float()
	cfg.includeSchemaTerms = md.Bool()
	cfg.segmentPhrases = md.Bool()
	threshold := md.Float()
	cfg.enableAggregates = md.Bool()
	if err := md.Err(); err != nil {
		return nil, fmt.Errorf("keysearch: open snapshot: meta: %w", err)
	}
	switch {
	case cfg.maxJoinPath <= 0 || cfg.maxJoinPath > maxJoinPathLimit:
		return nil, fmt.Errorf("keysearch: open snapshot: meta: join-path bound %d outside [1, %d]", cfg.maxJoinPath, maxJoinPathLimit)
	case alpha != 0 && alpha != 1:
		return nil, fmt.Errorf("keysearch: open snapshot: saved with ATF smoothing alpha=%v, a retired engine option; only the default 1 is served", alpha)
	case cfg.segmentPhrases && threshold != segmentThreshold:
		return nil, fmt.Errorf("keysearch: open snapshot: saved with phrase threshold %v, a retired engine option; WithSegmentPhrases is fixed at %v", threshold, segmentThreshold)
	}

	rawDB := sections[sectionDatabase]
	if rawDB == nil {
		return nil, fmt.Errorf("keysearch: open snapshot: missing %s section", sectionDatabase)
	}
	db, err := relstore.DecodeSnapshot(durable.NewDec(rawDB))
	if err != nil {
		return nil, fmt.Errorf("keysearch: open snapshot: %w", err)
	}
	db.Prepare() // equality indexes are not persisted; re-materialise the canonical set
	ix := invindex.Build(db)

	graph := schemagraph.FromDatabase(db)
	cat := query.BuildCatalog(graph, schemagraph.EnumerateOptions{
		MaxNodes: cfg.maxJoinPath,
		MaxTrees: cfg.maxTemplates,
	})

	eng := &Engine{cfg: cfg, db: db}
	if cfg.answerCacheBytes > 0 {
		eng.qc = qcache.New(cfg.answerCacheBytes)
		if raw := sections[sectionQCache]; raw != nil {
			// Restore the persisted hot set so the engine restarts warm.
			// The section was written under the writer lock, so every
			// entry is valid for the snapshot decoded above; WAL replay
			// (Open) invalidates through the publish path as usual.
			if err := eng.qc.DecodeSnapshot(raw); err != nil {
				return nil, fmt.Errorf("keysearch: open snapshot: %w", err)
			}
		}
	}
	s := &snapshot{
		epoch: epoch,
		db:    db,
		ix:    ix,
		graph: graph,
		cat:   cat,
		model: eng.newModel(ix, cat),
	}
	eng.snap.Store(s)
	eng.built = true
	return eng, nil
}

// Open recovers a durable engine from its state directory: the latest
// snapshot file is restored and the write-ahead log's tail — every
// batch acknowledged after that snapshot, tolerating a torn final
// record — is replayed in epoch order. The engine then resumes durable
// operation in dir (WAL appends, background checkpoints).
//
// Open fails with fs.ErrNotExist when dir holds no snapshot; callers
// wanting open-or-build semantics (cmd/serve) test for that, build
// fresh with WithDurability(dir), and get the same directory layout.
func Open(dir string, opts ...Option) (*Engine, error) {
	f, err := os.Open(filepath.Join(dir, snapshotFileName))
	if err != nil {
		return nil, fmt.Errorf("keysearch: open %s: %w", dir, err)
	}
	eng, err := OpenSnapshot(f, opts...)
	f.Close()
	if err != nil {
		return nil, err
	}
	eng.cfg.durDir = dir

	wal, recs, err := durable.RecoverWAL(filepath.Join(dir, walFileName), true)
	if err != nil {
		return nil, err
	}
	replayed := 0
	for _, rec := range recs {
		cur := eng.Epoch()
		if rec.Epoch <= cur {
			// Older than the snapshot: the crash hit between checkpoint
			// rename and WAL truncation. Already folded in; skip.
			continue
		}
		if rec.Epoch != cur+1 {
			wal.Close()
			return nil, fmt.Errorf("keysearch: open %s: wal gap: record epoch %d after snapshot epoch %d",
				dir, rec.Epoch, cur)
		}
		muts, err := decodeMutations(rec.Body)
		if err != nil {
			wal.Close()
			return nil, fmt.Errorf("keysearch: open %s: %w", dir, err)
		}
		next, stale, err := eng.nextSnapshot(muts)
		if err != nil {
			wal.Close()
			return nil, fmt.Errorf("keysearch: open %s: replay epoch %d: %w", dir, rec.Epoch, err)
		}
		// publish (not a bare pointer store): replayed batches must
		// invalidate any restored hot-set entries they touch, exactly as
		// the original Apply did.
		eng.publish(next, stale)
		replayed++
	}

	// Records already folded into the snapshot (skipped above) are not
	// pending replay work; keep the log's count consistent with the
	// pending gauge so the next checkpoint reports honest numbers.
	wal.SetRecords(replayed)
	eng.dur = &durState{
		dir:  dir,
		wal:  wal,
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
	}
	eng.dur.pending.Store(int64(replayed))
	eng.dur.lastCkpt.Store(eng.Epoch() - uint64(replayed))
	eng.startCheckpointPolicy()
	return eng, nil
}

// initDurability is Build's durable initialisation: create the state
// directory, write the epoch-0 snapshot, truncate any stale WAL, and
// start the checkpoint policy.
func (e *Engine) initDurability() error {
	dir := e.cfg.durDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("keysearch: durability: %w", err)
	}
	// A stale log from a previous incarnation must be truncated BEFORE
	// the fresh snapshot is written: in the other order, a crash between
	// the two steps leaves an epoch-0 snapshot next to old records whose
	// epochs (1..N) would replay cleanly onto the new dataset. Truncate-
	// first only risks the benign window (old snapshot + empty WAL, or
	// no snapshot at all → rebuilt on the next boot).
	wal, _, err := durable.RecoverWAL(filepath.Join(dir, walFileName), true)
	if err != nil {
		return err
	}
	if err := wal.Reset(); err != nil {
		wal.Close()
		return err
	}
	if err := e.writeSnapshotFile(e.current()); err != nil {
		wal.Close()
		return err
	}
	e.dur = &durState{
		dir:  dir,
		wal:  wal,
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
	}
	e.startCheckpointPolicy()
	return nil
}

// writeSnapshotFile atomically replaces the directory's snapshot file
// with the given snapshot's encoding.
func (e *Engine) writeSnapshotFile(s *snapshot) error {
	path := filepath.Join(e.cfg.durDir, snapshotFileName)
	return durable.WriteFileAtomic(path, func(w io.Writer) error {
		// All writeSnapshotFile callers (initDurability, Checkpoint) hold
		// applyMu, so persisting the hot set here is consistent with s.
		return e.encodeSnapshot(s, w, true)
	})
}

// logBatch appends one acknowledged batch to the WAL. Callers hold
// applyMu.
func (d *durState) logBatch(epoch uint64, muts []Mutation) error {
	return d.wal.Append(epoch, encodeMutations(muts))
}

// noteBatch counts a committed batch and wakes the checkpoint policy
// when the batch bound is reached. Callers hold applyMu.
func (d *durState) noteBatch(bound int) {
	if d.pending.Add(1) >= int64(bound) {
		select {
		case d.kick <- struct{}{}:
		default:
		}
	}
}

// encodeMutations serialises one batch as a WAL record body.
func encodeMutations(muts []Mutation) []byte {
	var e durable.Enc
	e.Uvarint(uint64(len(muts)))
	for _, m := range muts {
		e.String(string(m.Op))
		e.String(m.Table)
		e.String(m.Key)
		e.Strings(m.Values)
	}
	return e.Bytes()
}

// decodeMutations parses a WAL record body.
func decodeMutations(body []byte) ([]Mutation, error) {
	d := durable.NewDec(body)
	n := int(d.Uvarint())
	// Cap the pre-allocation by the input size (a mutation encodes to at
	// least 4 bytes), so a corrupt count cannot demand gigabytes.
	muts := make([]Mutation, 0, min(n, d.Remaining()/4+1))
	for i := 0; i < n && d.Err() == nil; i++ {
		muts = append(muts, Mutation{
			Op:     MutationOp(d.String()),
			Table:  d.String(),
			Key:    d.String(),
			Values: d.Strings(),
		})
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("keysearch: wal record: %w", err)
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("keysearch: wal record: %d trailing bytes", d.Remaining())
	}
	return muts, nil
}

// CheckpointStats reports one checkpoint.
type CheckpointStats struct {
	// Epoch is the snapshot epoch persisted by this checkpoint.
	Epoch uint64 `json:"epoch"`
	// Compacted lists tables whose tombstones the checkpoint dropped via
	// rebuild-and-swap (dead/live ratio above the configured threshold).
	Compacted []string `json:"compacted,omitempty"`
	// WALBatchesDropped is the number of logged batches the truncated WAL
	// contained — all now redundant with the snapshot file.
	WALBatchesDropped int `json:"wal_batches_dropped"`
}

// Checkpoint persists the current state and truncates the write-ahead
// log: recovery cost drops back to "read one snapshot". When a table's
// dead/live ratio exceeds the compaction threshold, its tombstones are
// first compacted away by a rebuild-and-swap of that table (published
// like a mutation batch: atomically, without disturbing in-flight
// readers), so churn-heavy tables cannot grow their physical row space
// — and every later Apply's copy-on-write cost — without bound.
//
// Checkpoint serialises with Apply on the writer lock; readers are
// never blocked. The background policy calls it automatically; the
// admin endpoint POST /v1/checkpoint and a graceful shutdown call it
// explicitly.
func (e *Engine) Checkpoint(ctx context.Context) (*CheckpointStats, error) {
	if e.dur == nil {
		return nil, ErrDurabilityDisabled
	}
	e.applyMu.Lock()
	defer e.applyMu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	s := e.current()
	var compacted []string
	for _, t := range s.db.Tables() {
		if t.DeadRatio() > compactRatio {
			compacted = append(compacted, t.Schema.Name)
		}
	}
	if len(compacted) > 0 {
		s = e.compactSnapshot(s, compacted)
		// Compaction moves RowIDs at an unchanged epoch, and every cached
		// answer speaks in RowIDs: publish through the answer cache with
		// every attribute of the compacted tables so their entries are
		// dropped atomically with the swap.
		e.publish(s, relstore.AllTableAttrs(s.db, compacted))
	}
	if err := e.writeSnapshotFile(s); err != nil {
		return nil, err
	}
	dropped := e.dur.wal.Records()
	if err := e.dur.wal.Reset(); err != nil {
		return nil, err
	}
	e.dur.pending.Store(0)
	e.dur.lastCkpt.Store(s.epoch)
	return &CheckpointStats{Epoch: s.epoch, Compacted: compacted, WALBatchesDropped: dropped}, nil
}

// compactSnapshot rebuilds the named tables without tombstones and
// re-derives every RowID-keyed structure over the compacted database.
// Row statistics are unchanged — only physical identifiers move — so
// the inverted index keeps its term dictionary and only re-resolves its
// column postings, the ranking model is rebuilt with a cold score cache,
// and search responses are byte-identical before and after (the
// responses never expose RowIDs; the differential tests pin this). The
// epoch is kept: compaction changes representation, not logical content.
func (e *Engine) compactSnapshot(s *snapshot, tables []string) *snapshot {
	ndb := s.db.CompactTables(tables)
	ndb.Prepare()
	nix := s.ix.Apply(ndb, nil) // no term appears or vanishes
	return &snapshot{
		epoch: s.epoch,
		db:    ndb,
		ix:    nix,
		graph: s.graph,
		cat:   s.cat,
		model: e.newModel(nix, s.cat),
	}
}

// startCheckpointPolicy launches the background goroutine that
// checkpoints when mutation batches are pending and either the
// configured interval elapses or the batch bound is passed. Read-only
// durable engines skip it: with no Apply there is nothing to fold.
func (e *Engine) startCheckpointPolicy() {
	if !e.cfg.mutable {
		return
	}
	d := e.dur
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		ticker := time.NewTicker(e.cfg.checkpointInterval)
		defer ticker.Stop()
		for {
			select {
			case <-d.stop:
				return
			case <-ticker.C:
			case <-d.kick:
			}
			if d.pending.Load() > 0 {
				// Errors here (disk full, directory gone) are retried on
				// the next tick; Apply keeps the WAL as the source of
				// truth in the meantime.
				_, _ = e.Checkpoint(context.Background())
			}
		}
	}()
}

// Close ends durable operation: the checkpoint policy is stopped, a
// final checkpoint folds the WAL tail into the snapshot file, and the
// log is closed. On a memory-only engine Close is a no-op. Close is
// idempotent; the engine keeps serving reads afterwards, but further
// Apply calls fail (their log is gone).
func (e *Engine) Close() error {
	if e.dur == nil {
		return nil
	}
	var err error
	e.dur.stopOnce.Do(func() {
		close(e.dur.stop)
		e.dur.wg.Wait()
		if _, cerr := e.Checkpoint(context.Background()); cerr != nil {
			err = cerr
		}
		if cerr := e.dur.wal.Close(); cerr != nil && err == nil {
			err = cerr
		}
	})
	return err
}

// Durable reports whether the engine persists to a state directory.
func (e *Engine) Durable() bool { return e.dur != nil }

// DataDir returns the durable state directory ("" when memory-only).
func (e *Engine) DataDir() string {
	if e.dur == nil {
		return ""
	}
	return e.dur.dir
}

// PendingWALBatches returns the number of mutation batches logged since
// the last checkpoint — the replay work a crash right now would cost.
func (e *Engine) PendingWALBatches() int {
	if e.dur == nil {
		return 0
	}
	return int(e.dur.pending.Load())
}

// LastCheckpointEpoch returns the epoch of the on-disk snapshot file.
func (e *Engine) LastCheckpointEpoch() uint64 {
	if e.dur == nil {
		return 0
	}
	return e.dur.lastCkpt.Load()
}
