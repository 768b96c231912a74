package relstore_test

import (
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/durable"
	"repro/internal/relstore"
)

// The steady-state batch: applyActors transient actors inserted and
// deleted again within the batch (later mutations see earlier ones),
// and the titles of the first applyMovies movies rewritten.
const (
	applyActors = 10
	applyMovies = 10
)

// applyBatch builds one batch over db. Parity picks the titles: "Reel
// i", with " churned" appended on odd parities, so consecutive batches
// alternate between two states whose vocabulary does not depend on the
// generated data.
func applyBatch(t *testing.T, db *relstore.Database, parity int) []relstore.Mutation {
	t.Helper()
	muts := make([]relstore.Mutation, 0, 2*applyActors+applyMovies)
	for i := range applyActors {
		muts = append(muts, relstore.Mutation{Op: relstore.OpInsert, Table: "actor",
			Values: []string{fmt.Sprintf("apply-a%d", i), fmt.Sprintf("Transient Benchling %d", i)}})
	}
	for id := range applyMovies {
		row, ok := db.Table("movie").Row(id)
		if !ok {
			t.Fatalf("movie row %d missing", id)
		}
		title := fmt.Sprintf("Reel %d", id)
		if parity%2 == 1 {
			title += " churned"
		}
		key := row.Values[0]
		muts = append(muts, relstore.Mutation{Op: relstore.OpUpdate, Table: "movie", Key: key,
			Values: []string{key, title, row.Values[2]}})
	}
	for i := range applyActors {
		muts = append(muts, relstore.Mutation{Op: relstore.OpDelete, Table: "actor", Key: fmt.Sprintf("apply-a%d", i)})
	}
	return muts
}

// TestApplyWorkCounted is Apply's counted guard: a batch costs what it
// changes, not the size of the tables it lands in. Over the demo movies
// at 1× and 2.5× (every indexed column's postings built), a warm-up
// batch moves ten titles to "Reel i churned", then the measured batch
// inserts and deletes ten actors and sets the titles back to "Reel i".
// At both sizes it must replace exactly the 12 posting lists of the
// title tokens it moves (reel, 0–9, churned; the actors' lists come and
// go inside the batch) and tokenize exactly its 40 changed cells (the
// actor names inserted and deleted, the titles removed and added). A
// snapshot of the result decodes and prepares without tokenizing a
// cell. Apply rebuilding a touched column's postings, or the whole
// index, from its rows fails here on any machine, with no timing.
func TestApplyWorkCounted(t *testing.T) {
	const wantReplaced, wantCells = 12, 2*applyActors + 2*applyMovies
	for _, scale := range []float64{1, 2.5} {
		db, err := datagen.IMDB(datagen.IMDBConfig{
			Movies: int(400 * scale), Actors: int(300 * scale),
			Directors: int(80 * scale), Companies: int(40 * scale), Seed: 21,
		})
		if err != nil {
			t.Fatal(err)
		}
		db.Prepare()
		warm, _, err := db.Apply(applyBatch(t, db, 1))
		if err != nil {
			t.Fatal(err)
		}
		next, changes, err := warm.Apply(applyBatch(t, warm, 2))
		if err != nil {
			t.Fatal(err)
		}
		if len(changes) != 2*applyActors+applyMovies {
			t.Fatalf("%.1f×: %d row changes, want %d", scale, len(changes), 2*applyActors+applyMovies)
		}
		replaced, cells := relstore.PostingListsReplaced(warm, next), next.CellsTokenized(warm)
		t.Logf("%.1f× (%d rows): %d posting lists replaced, %d cells tokenized", scale, db.NumRows(), replaced, cells)
		if replaced != wantReplaced || cells != wantCells {
			t.Errorf("%.1f×: batch replaced %d posting lists and tokenized %d cells, want %d and %d",
				scale, replaced, cells, wantReplaced, wantCells)
		}

		var enc durable.Enc
		next.EncodeSnapshot(&enc, relstore.EncodeOptions{Physical: true, Postings: true})
		decoded, err := relstore.DecodeSnapshot(durable.NewDec(enc.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		decoded.Prepare()
		if n := decoded.CellsTokenized(nil); n != 0 {
			t.Errorf("%.1f×: decoding and preparing a snapshot tokenized %d cells, want 0", scale, n)
		}
	}
}
