package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	keysearch "repro"
	"repro/internal/relstore"
)

// mutMovies and mutActors size one batch: 2*mutActors inserts+deletes
// and mutMovies updates per Apply.
const (
	mutMovies = 10
	mutActors = 10
)

// load builds an engine from a row dump — what a restart, or a refresh
// without Apply, has to do.
func load(dump []byte, opts ...keysearch.Option) (*keysearch.Engine, error) {
	return keysearch.Load(bytes.NewReader(dump), append([]keysearch.Option{keysearch.WithCoOccurrence()}, opts...)...)
}

// sameAnswer is the differential bar of the self-checks: both engines
// must answer the query byte-identically.
func sameAnswer(got, want *keysearch.Engine, query string) error {
	req := keysearch.SearchRequest{Query: query, K: 5, RowLimit: 2}
	g, gErr := got.Search(context.Background(), req)
	w, wErr := want.Search(context.Background(), req)
	if gErr != nil || wErr != nil {
		return fmt.Errorf("verify searches failed: %v / %v", gErr, wErr)
	}
	gj, _ := json.Marshal(g) // plain response structs: cannot fail
	wj, _ := json.Marshal(w)
	if !bytes.Equal(gj, wj) {
		return fmt.Errorf("engine diverged from a fresh build on %q:\n got %.200s\nwant %.200s", query, gj, wj)
	}
	return nil
}

// mutateOps measures what keeping the index fresh under a changing
// database costs: the incremental path (Engine.Apply with copy-on-write
// snapshots) against the only alternative a frozen engine has —
// reloading the rows and rebuilding every index and statistic.
//
// One batch inserts a block of new actors, deletes them again within
// the same batch (exercising intra-batch visibility), and toggles the
// titles of a block of movies, so repeated batches keep the database
// size bounded while continuously churning posting lists, the inverted
// index, and the ranking statistics. Scale 1.0 keeps the rebuild row
// affordable in CI while staying large enough that rebuild-vs-apply is
// meaningful. Rows:
//
//   - full-rebuild:  gob-decode the dump and Build a fresh engine — the
//     per-batch cost of serving fresh data without Apply,
//   - apply-batch:   one Engine.Apply of the batch,
//   - apply+search:  Apply followed by one Search, the read-after-write
//     freshness path a live ingest pipeline exercises.
func mutateOps(Config) (*microSpec, error) {
	// Generate the rows directly so the batch builder knows real movie
	// keys and their current values, then feed the engine through the
	// dump — the same bytes the rebuild row reloads.
	db, err := demoMovies(1.0)
	if err != nil {
		return nil, err
	}
	movies := make([]relstore.Tuple, mutMovies)
	for id := range movies {
		movies[id], _ = db.Table("movie").Row(id)
	}
	var dump bytes.Buffer
	if err := db.Save(&dump); err != nil {
		return nil, err
	}
	eng, err := load(dump.Bytes(), keysearch.WithMutations())
	if err != nil {
		return nil, err
	}
	qs := eng.SampleQueries(1)
	if len(qs) == 0 {
		return nil, fmt.Errorf("no sample queries")
	}

	// Odd parities append a churn token to each sampled movie title,
	// even parities restore the original, so the database alternates
	// between exactly two states.
	parity := 0
	apply := func() error {
		parity++
		muts := make([]keysearch.Mutation, 0, 2*mutActors+mutMovies)
		for i := 0; i < mutActors; i++ {
			key := fmt.Sprintf("bench-a%d", i)
			muts = append(muts, keysearch.Mutation{Op: keysearch.OpInsert, Table: "actor",
				Values: []string{key, fmt.Sprintf("Transient Benchling %d", i)}})
		}
		for _, row := range movies {
			key, title := row.Values[0], row.Values[1]
			if parity%2 == 1 {
				title += " churned"
			}
			muts = append(muts, keysearch.Mutation{Op: keysearch.OpUpdate, Table: "movie", Key: key,
				Values: []string{key, title, row.Values[2]}})
		}
		for i := 0; i < mutActors; i++ {
			muts = append(muts, keysearch.Mutation{Op: keysearch.OpDelete, Table: "actor", Key: fmt.Sprintf("bench-a%d", i)})
		}
		_, err := eng.Apply(context.Background(), muts)
		return err
	}

	return &microSpec{
		dataset: "demo-movies scaled 1.0x",
		params:  map[string]any{"batch_size": 2*mutActors + mutMovies},
		// After an even number of batches the engine must answer
		// byte-identically to the pristine reloaded engine.
		verify: func() error {
			for i := 0; i < 2 || parity%2 == 1; i++ {
				if err := apply(); err != nil {
					return err
				}
			}
			pristine, err := load(dump.Bytes(), keysearch.WithMutations())
			if err != nil {
				return err
			}
			return sameAnswer(eng, pristine, qs[0])
		},
		ops: []microOp{
			{name: "full-rebuild", run: func() error {
				fresh, err := load(dump.Bytes(), keysearch.WithMutations())
				if err == nil && fresh.NumRows() == 0 {
					err = fmt.Errorf("rebuilt engine is empty")
				}
				return err
			}},
			{name: "apply-batch", run: apply, ratio: "speedup_vs_rebuild", versus: "full-rebuild"},
			{name: "apply+search", ratio: "speedup_vs_rebuild", versus: "full-rebuild", run: func() error {
				if err := apply(); err != nil {
					return err
				}
				_, err := eng.Search(context.Background(), keysearch.SearchRequest{Query: qs[0], K: 3})
				return err
			}},
		},
	}, nil
}
