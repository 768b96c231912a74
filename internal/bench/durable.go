package bench

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	keysearch "repro"
)

// durReplay is the WAL length of the crash-recovery fixture, and
// durBatch the number of mutations per logged batch.
const (
	durReplay = 8
	durBatch  = 6
)

// durChurn is one steady-state mutation batch: durBatch/2 inserts of
// transient actors and their deletions, so the database size stays
// bounded while the WAL grows.
func durChurn(seq int) []keysearch.Mutation {
	muts := make([]keysearch.Mutation, 0, durBatch)
	for i := 0; i < durBatch/2; i++ {
		muts = append(muts, keysearch.Mutation{Op: keysearch.OpInsert, Table: "actor",
			Values: []string{fmt.Sprintf("dur-%d-%d", seq, i), fmt.Sprintf("Transient Durling %d", i)}})
	}
	for i := 0; i < durBatch/2; i++ {
		muts = append(muts, keysearch.Mutation{Op: keysearch.OpDelete, Table: "actor", Key: fmt.Sprintf("dur-%d-%d", seq, i)})
	}
	return muts
}

// durableOps measures what surviving a restart costs with and without
// the durability subsystem, and what durable operation costs while
// running, on the 2.5x dataset: large enough that corpus tokenisation
// dominates Build (what snapshots avoid), small enough for CI. Rows:
//
//   - fresh-build:   reload the serialised rows and Build a fresh engine
//     (tokenise the corpus, build every index, enumerate the catalogue)
//     — the restart price a memory-only engine always pays,
//   - open-snapshot: keysearch.Open of a checkpointed state directory
//     (decode the snapshot file, replay an empty WAL) — the restart
//     price after a clean shutdown or a recent checkpoint,
//   - wal-replay:    keysearch.Open of a state directory whose WAL holds
//     durReplay batches — the restart price after a crash,
//   - checkpoint:    one durable Apply plus an explicit Checkpoint
//     (snapshot rewrite, fsync, WAL truncation). It is a write-path
//     cost, not a recovery path, so it carries no ratio and is tracked
//     by its absolute trajectory.
func durableOps() (*microSpec, error) {
	root, err := os.MkdirTemp("", "bench-durable")
	if err != nil {
		return nil, err
	}
	spec, err := durableFixtures(root)
	if err != nil {
		os.RemoveAll(root)
		return nil, err
	}
	spec.close = func() { os.RemoveAll(root) }
	return spec, nil
}

// durableFixtures serves one logical dataset three ways under root (row
// dump, checkpointed directory, crash-shaped directory) plus a live
// durable engine for the checkpoint row.
func durableFixtures(root string) (*microSpec, error) {
	db, err := demoMovies(microScale)
	if err != nil {
		return nil, err
	}
	var dump bytes.Buffer
	if err := db.Save(&dump); err != nil {
		return nil, err
	}
	// Every durable fixture: mutations on, background checkpointing out
	// of the way (rows checkpoint explicitly), and durReplay churn
	// batches applied.
	churned := func(name string) (*keysearch.Engine, string, error) {
		dir := filepath.Join(root, name)
		eng, err := load(dump.Bytes(), keysearch.WithMutations(), keysearch.WithDurability(dir),
			keysearch.WithCheckpointPolicy(time.Hour, 1<<30))
		for i := 0; err == nil && i < durReplay; i++ {
			_, err = eng.Apply(context.Background(), durChurn(i))
		}
		return eng, dir, err
	}
	// Crash-shaped: epoch-0 snapshot + durReplay WAL records, never
	// checkpointed, never closed — exactly a crash.
	_, crashDir, err := churned("crash")
	if err != nil {
		return nil, err
	}
	// Checkpointed: the same batches folded into the snapshot by Close.
	cleanEng, cleanDir, err := churned("clean")
	if err == nil {
		err = cleanEng.Close()
	}
	if err != nil {
		return nil, err
	}
	live, _, err := churned("ckpt")
	if err != nil {
		return nil, err
	}

	open := func(dir string, pending int) func() error {
		return func() error {
			eng, err := keysearch.Open(dir)
			if err != nil {
				return err
			}
			if eng.Epoch() != durReplay || eng.PendingWALBatches() != pending {
				return fmt.Errorf("%s recovered epoch %d with %d pending batches, want %d with %d",
					dir, eng.Epoch(), eng.PendingWALBatches(), durReplay, pending)
			}
			return nil
		}
	}
	seq := 1000
	return &microSpec{
		dataset: microDataset,
		params:  map[string]any{"replay_batches": durReplay, "batch_size": durBatch},
		// Both recovery paths must answer byte-identically to a fresh
		// build over the same logical rows (the churn batches net out,
		// so the dump is that row set).
		verify: func() error {
			pristine, err := load(dump.Bytes())
			if err != nil {
				return err
			}
			qs := pristine.SampleQueries(2)
			if len(qs) == 0 {
				return fmt.Errorf("no sample queries")
			}
			for _, dir := range []string{cleanDir, crashDir} {
				recovered, err := keysearch.Open(dir)
				if err != nil {
					return err
				}
				for _, q := range qs {
					if err := sameAnswer(recovered, pristine, q); err != nil {
						return fmt.Errorf("%s: %w", dir, err)
					}
				}
			}
			return nil
		},
		ops: []microOp{
			{name: "fresh-build", run: func() error {
				fresh, err := load(dump.Bytes())
				if err == nil && fresh.NumRows() == 0 {
					err = fmt.Errorf("rebuilt engine is empty")
				}
				return err
			}},
			{name: "open-snapshot", run: open(cleanDir, 0), ratio: "speedup_vs_build", versus: "fresh-build"},
			{name: "wal-replay", run: open(crashDir, durReplay), ratio: "speedup_vs_build", versus: "fresh-build"},
			{name: "checkpoint", run: func() error {
				seq++
				if _, err := live.Apply(context.Background(), durChurn(seq)); err != nil {
					return err
				}
				_, err := live.Checkpoint(context.Background())
				return err
			}},
		},
	}, nil
}
