// Durable: persist an engine to a state directory, change its rows, and
// recover it after a restart.
//
// WithDurability writes a snapshot at Build and appends every Apply
// batch to a write-ahead log before acknowledging it; a checkpoint folds
// the log into a new snapshot. WithCheckpointPolicy sets when the
// background policy checkpoints: here after 30 seconds, or as soon as
// two batches are pending. Close takes a final checkpoint, and Open
// restores the snapshot and replays whatever the log still holds.
//
//	go run ./examples/durable
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	keysearch "repro"
)

func main() {
	dir, err := os.MkdirTemp("", "keysearch-durable")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	eng, err := keysearch.New([]keysearch.Table{{
		Name: "actor", Columns: []keysearch.Column{{Name: "id"}, {Name: "name", Text: true}}, PrimaryKey: "id",
	}}, keysearch.WithMutations(), keysearch.WithDurability(dir), keysearch.WithCheckpointPolicy(30*time.Second, 2))
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.Insert("actor", "a1", "Tom Hanks"); err != nil {
		log.Fatal(err)
	}
	if err := eng.Build(); err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	for _, m := range []keysearch.Mutation{
		{Op: keysearch.OpInsert, Table: "actor", Values: []string{"a2", "Meg Ryan"}},
		{Op: keysearch.OpUpdate, Table: "actor", Key: "a1", Values: []string{"a1", "Tom Hanks Jr"}},
	} {
		if _, err := eng.Apply(ctx, []keysearch.Mutation{m}); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("applied 2 batches: epoch %d\n", eng.Epoch())
	if err := eng.Close(); err != nil {
		log.Fatal(err)
	}

	got, err := keysearch.Open(dir, keysearch.WithMutations())
	if err != nil {
		log.Fatal(err)
	}
	defer got.Close()
	fmt.Printf("reopened: epoch %d, %d WAL batches left to replay\n", got.Epoch(), got.PendingWALBatches())
	for _, q := range []string{"ryan", "jr"} {
		resp, err := got.Search(ctx, keysearch.SearchRequest{Query: q, K: 1, RowLimit: 1})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %q: %s %v\n", q, resp.Results[0].Query, resp.Results[0].Preview)
	}
}
