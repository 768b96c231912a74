package keysearch

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/relstore"
)

// mutableEngine builds the small movie engine with mutations enabled.
func mutableEngine(t testing.TB, opts ...Option) *Engine {
	t.Helper()
	return builtEngine(t, append([]Option{WithMutations()}, opts...)...)
}

// rebuiltEngine constructs a fresh engine over the live rows of eng's
// current snapshot, in physical row order, with the given options — the
// "full rebuild of the final state" oracle of the differential tests.
func rebuiltEngine(t *testing.T, eng *Engine, opts ...Option) *Engine {
	t.Helper()
	s := eng.current()
	ndb := relstore.NewDatabase(s.db.Name)
	for _, tb := range s.db.Tables() {
		schema := *tb.Schema
		nt, err := ndb.CreateTable(&schema)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range tb.Rows() {
			if !tb.Live(row.RowID) {
				continue
			}
			if _, err := nt.Insert(row.Values...); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := ndb.ValidateRefs(); err != nil {
		t.Fatal(err)
	}
	ne := fromDatabase(ndb, opts...)
	if err := ne.Build(); err != nil {
		t.Fatal(err)
	}
	return ne
}

// asJSON marshals any response for byte-level comparison.
func asJSON(t *testing.T, v any, err error) string {
	t.Helper()
	if err != nil {
		return "error: " + err.Error()
	}
	b, merr := json.Marshal(v)
	if merr != nil {
		t.Fatal(merr)
	}
	return string(b)
}

// compareEngines asserts byte-identical responses from the mutated and
// the freshly rebuilt engine across every read entry point, and that at
// least one comparison covered a real (non-error, non-empty) response so
// the equality check cannot pass vacuously.
func compareEngines(t *testing.T, mutated, fresh *Engine, queries []string) {
	t.Helper()
	nonTrivial := 0
	for _, q := range queries {
		for name, run := range map[string]func(e *Engine) (any, error){
			"search": func(e *Engine) (any, error) {
				return e.Search(bg, SearchRequest{Query: q, K: 5, RowLimit: 3})
			},
			"rows": func(e *Engine) (any, error) {
				return e.SearchRows(bg, RowsRequest{Query: q, K: 5})
			},
			"diversify": func(e *Engine) (any, error) {
				return e.Diversify(bg, DiversifyRequest{Query: q, K: 4, Lambda: 0.5})
			},
		} {
			got, gotErr := run(mutated)
			want, wantErr := run(fresh)
			gj, wj := asJSON(t, got, gotErr), asJSON(t, want, wantErr)
			if gj != wj {
				t.Errorf("%s(%q) diverges after mutations:\n mutated: %.300s\n rebuilt: %.300s", name, q, gj, wj)
			}
			if gotErr == nil && strings.Contains(gj, "probability") {
				nonTrivial++
			}
		}
	}
	if nonTrivial == 0 {
		t.Fatalf("differential comparison was vacuous: no query of %v produced a ranked response", queries)
	}
}

func TestApplyRequiresOptIn(t *testing.T) {
	eng := builtEngine(t)
	if _, err := eng.Apply(bg, []Mutation{{Op: OpInsert, Table: "actor", Values: []string{"a9", "New Actor"}}}); !errors.Is(err, ErrMutationsDisabled) {
		t.Fatalf("Apply on immutable engine: err = %v, want ErrMutationsDisabled", err)
	}
	if eng.MutationsEnabled() {
		t.Fatal("MutationsEnabled = true without WithMutations")
	}
}

func TestApplyValidation(t *testing.T) {
	eng := mutableEngine(t)
	cases := []struct {
		name string
		muts []Mutation
		want string
	}{
		{"empty batch", nil, "empty mutation batch"},
		{"unknown op", []Mutation{{Op: "upsert", Table: "actor"}}, "unknown op"},
		{"unknown table", []Mutation{{Op: OpInsert, Table: "ghost", Values: []string{"x"}}}, "unknown table"},
		{"arity", []Mutation{{Op: OpInsert, Table: "actor", Values: []string{"only-id"}}}, "expects 2 values"},
		{"missing key", []Mutation{{Op: OpDelete, Table: "actor"}}, "empty key"},
		{"unknown key", []Mutation{{Op: OpDelete, Table: "actor", Key: "a999"}}, "no row with"},
		{"no pk", []Mutation{{Op: OpDelete, Table: "acts", Key: "a1"}}, "no primary key"},
		{"duplicate key", []Mutation{{Op: OpInsert, Table: "actor", Values: []string{"a1", "Clone"}}}, "already has a row"},
	}
	for _, tc := range cases {
		_, err := eng.Apply(bg, tc.muts)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	// A failed batch must leave the engine untouched.
	if got := eng.Epoch(); got != 0 {
		t.Fatalf("epoch after rejected batches = %d, want 0", got)
	}
	if eng.NumRows() != 7 {
		t.Fatalf("NumRows after rejected batches = %d, want 7", eng.NumRows())
	}
}

func TestApplyAtomicRejection(t *testing.T) {
	eng := mutableEngine(t)
	// First mutation valid, second invalid: nothing may stick.
	_, err := eng.Apply(bg, []Mutation{
		{Op: OpInsert, Table: "actor", Values: []string{"a9", "Uma Thurman"}},
		{Op: OpDelete, Table: "actor", Key: "a999"},
	})
	if err == nil {
		t.Fatal("invalid batch accepted")
	}
	if eng.NumRows() != 7 || eng.Epoch() != 0 {
		t.Fatalf("rejected batch leaked: rows=%d epoch=%d", eng.NumRows(), eng.Epoch())
	}
	if ks := eng.Keywords("uma", 5); len(ks) != 0 {
		t.Fatalf("rejected insert visible in keywords: %v", ks)
	}
}

func TestApplyBasicLifecycle(t *testing.T) {
	eng := mutableEngine(t)
	res, err := eng.Apply(bg, []Mutation{
		{Op: OpInsert, Table: "actor", Values: []string{"a4", "Meg Ryan"}},
		{Op: OpInsert, Table: "acts", Values: []string{"a4", "m1", "Amelia"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 1 || res.Applied != 2 {
		t.Fatalf("ApplyResult = %+v, want epoch 1, applied 2", res)
	}
	if eng.NumRows() != 9 {
		t.Fatalf("NumRows = %d, want 9", eng.NumRows())
	}
	results := search(t, eng, "ryan", 3)
	if len(results) == 0 {
		t.Fatal("inserted row not searchable")
	}

	// Update: the new value is searchable, the old one is gone.
	if _, err := eng.Apply(bg, []Mutation{{Op: OpUpdate, Table: "actor", Key: "a4", Values: []string{"a4", "Nora Ephron"}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Search(bg, SearchRequest{Query: "ryan"}); err == nil {
		t.Fatal("stale keyword still matches after update")
	}
	if got := search(t, eng, "ephron", 3); len(got) == 0 {
		t.Fatal("updated value not searchable")
	}

	// Delete: the keyword disappears; an insert-then-delete batch nets out.
	if _, err := eng.Apply(bg, []Mutation{
		{Op: OpDelete, Table: "actor", Key: "a4"},
		{Op: OpInsert, Table: "movie", Values: []string{"m9", "Ghost Town", "2008"}},
		{Op: OpDelete, Table: "movie", Key: "m9"},
	}); err != nil {
		t.Fatal(err)
	}
	if eng.Epoch() != 3 {
		t.Fatalf("epoch = %d, want 3", eng.Epoch())
	}
	if _, err := eng.Search(bg, SearchRequest{Query: "ephron"}); err == nil {
		t.Fatal("deleted row still searchable")
	}
	if _, err := eng.Search(bg, SearchRequest{Query: "ghost"}); err == nil {
		t.Fatal("insert-then-delete row still searchable")
	}
	compareEngines(t, eng, rebuiltEngine(t, eng, WithMutations()), []string{"tom", "london", "hanks terminal"})
}

// TestSnapshotIsolation: results and sessions obtained before a mutation
// keep reading their pinned snapshot.
func TestSnapshotIsolation(t *testing.T) {
	eng := mutableEngine(t)
	resp, err := eng.Search(bg, SearchRequest{Query: "hanks", K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) == 0 {
		t.Fatal("no results for hanks")
	}
	pre := resp.Results[0]

	sess, err := eng.Construct(bg, ConstructRequest{Query: "london", StopAtRemaining: 1})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := eng.Apply(bg, []Mutation{{Op: OpUpdate, Table: "actor", Key: "a1", Values: []string{"a1", "Renamed Person"}}}); err != nil {
		t.Fatal(err)
	}

	// The pre-mutation result still executes against the old snapshot.
	rows, err := pre.Rows(5)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range rows {
		for _, v := range row {
			if strings.Contains(v, "Hanks") {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("pre-mutation result no longer sees its snapshot: %v", rows)
	}

	// The session still converges on its pinned snapshot.
	for !sess.Done() {
		q, ok := sess.Next()
		if !ok {
			break
		}
		if err := sess.Reject(bg, q); err != nil {
			t.Fatal(err)
		}
	}
	_ = sess.Candidates()

	// New requests see the new snapshot.
	if _, err := eng.Search(bg, SearchRequest{Query: "hanks"}); err == nil {
		t.Fatal("new request still sees pre-mutation value")
	}
	if got := search(t, eng, "renamed", 3); len(got) == 0 {
		t.Fatal("new request misses post-mutation value")
	}
}

// randomMutations generates a plausible random batch against the current
// snapshot: inserts with fresh keys, updates toggling text values, and
// deletes of existing keys.
func randomMutations(rng *rand.Rand, eng *Engine, n int, serial *int) []Mutation {
	s := eng.current()
	vocab := []string{"north", "south", "matrix", "runner", "golden", "hanks", "london", "blue", "twenty"}
	word := func() string { return vocab[rng.Intn(len(vocab))] }
	tables := s.db.TableNames()
	var muts []Mutation
	for len(muts) < n {
		tb := s.db.Table(tables[rng.Intn(len(tables))])
		schema := tb.Schema
		switch op := rng.Intn(3); {
		case op == 0 || schema.PrimaryKey == "": // insert
			*serial++
			vals := make([]string, len(schema.Columns))
			for ci, col := range schema.Columns {
				switch {
				case col.Name == schema.PrimaryKey:
					vals[ci] = fmt.Sprintf("mut%d", *serial)
				case fkRef(schema, col.Name) != nil:
					fk := fkRef(schema, col.Name)
					vals[ci] = randomLiveValue(rng, s.db.Table(fk.RefTable), fk.RefColumn)
				case col.Indexed:
					vals[ci] = word() + " " + word()
				default:
					vals[ci] = fmt.Sprintf("v%d", *serial)
				}
			}
			muts = append(muts, Mutation{Op: OpInsert, Table: schema.Name, Values: vals})
		default: // update or delete of a random live row
			pkCol := schema.ColumnIndex(schema.PrimaryKey)
			id := randomLiveRow(rng, tb)
			if id < 0 {
				continue
			}
			row, _ := tb.Row(id)
			key := row.Values[pkCol]
			if op == 1 {
				vals := append([]string(nil), row.Values...)
				for ci, col := range schema.Columns {
					if col.Indexed && rng.Intn(2) == 0 {
						vals[ci] = word() + " " + word()
					}
				}
				muts = append(muts, Mutation{Op: OpUpdate, Table: schema.Name, Key: key, Values: vals})
			} else {
				muts = append(muts, Mutation{Op: OpDelete, Table: schema.Name, Key: key})
			}
		}
	}
	return muts
}

func fkRef(schema *relstore.TableSchema, col string) *relstore.ForeignKey {
	for i := range schema.ForeignKeys {
		if schema.ForeignKeys[i].Column == col {
			return &schema.ForeignKeys[i]
		}
	}
	return nil
}

func randomLiveValue(rng *rand.Rand, t *relstore.Table, column string) string {
	id := randomLiveRow(rng, t)
	if id < 0 {
		return "none"
	}
	v, _ := t.Value(id, column)
	return v
}

func randomLiveRow(rng *rand.Rand, t *relstore.Table) int {
	if t.NumLive() == 0 {
		return -1
	}
	for {
		id := rng.Intn(t.Len())
		if t.Live(id) {
			return id
		}
	}
}

// TestDifferentialRandomMutations is the correctness bar of the
// live-mutation engine: after every batch of a random insert/update/delete
// sequence, every read entry point must answer byte-identically to an
// engine freshly built over the current rows. The query set runs before
// the first batch and after every one, so each batch lands on warm score,
// selection and (in the answer-cache variant) answer caches, and a cache
// entry a batch left stale shows up as a divergence.
func TestDifferentialRandomMutations(t *testing.T) {
	configs := []struct {
		name string
		opts []Option
	}{
		{"caches-on", []Option{WithMutations(), WithCoOccurrence()}},
		{"answer-cache", []Option{WithMutations(), WithCoOccurrence(), WithAnswerCache(answerCacheTestBudget)}},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			db, err := datagen.IMDB(datagen.IMDBConfig{Movies: 40, Actors: 30, Directors: 8, Companies: 5, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			eng := fromDatabase(db, cfg.opts...)
			if err := eng.Build(); err != nil {
				t.Fatal(err)
			}
			queries := append(eng.SampleQueries(4), "north south", "matrix runner", "golden twenty")
			compareEngines(t, eng, rebuiltEngine(t, eng, cfg.opts...), queries)
			rng := rand.New(rand.NewSource(42))
			serial := 0
			for round := 0; round < 6; round++ {
				muts := randomMutations(rng, eng, 1+rng.Intn(6), &serial)
				if _, err := eng.Apply(bg, muts); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				compareEngines(t, eng, rebuiltEngine(t, eng, cfg.opts...), queries)
			}
		})
	}
}

// TestConcurrentMutationsAndSearches races Apply against every read
// entry point under -race: readers must always observe either the
// pre-batch or the post-batch response, never a torn mixture.
func TestConcurrentMutationsAndSearches(t *testing.T) {
	eng := mutableEngine(t)

	// Precompute the only two legal responses for the sentinel query by
	// toggling the sentinel row back and forth once.
	queryA := func() string {
		resp, err := eng.Search(bg, SearchRequest{Query: "terminal", K: 3, RowLimit: 2})
		if err != nil {
			return "error: " + err.Error()
		}
		b, _ := json.Marshal(resp)
		return string(b)
	}
	toggle := func(v string) {
		if _, err := eng.Apply(bg, []Mutation{{Op: OpUpdate, Table: "movie", Key: "m1", Values: []string{"m1", "The Terminal " + v, "2004"}}}); err != nil {
			t.Fatal(err)
		}
	}
	respA := queryA() // initial state: "The Terminal"
	toggle("Redux")
	respB := queryA()
	toggle("")
	respC := queryA() // "The Terminal " + "" — differs from respA (trailing token split is identical, value differs)
	legal := map[string]bool{respA: true, respB: true, respC: true}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := queryA(); !legal[got] {
					select {
					case errs <- got:
					default:
					}
					return
				}
				if _, err := eng.SearchRows(bg, RowsRequest{Query: "hanks", K: 2}); err != nil {
					errs <- "rows: " + err.Error()
					return
				}
				_ = eng.Keywords("t", 5)
				_ = eng.Epoch()
			}
		}()
	}
	for i := 0; i < 30; i++ {
		toggle("Redux")
		toggle("")
	}
	close(stop)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("reader observed illegal response: %.300s", e)
	}
	compareEngines(t, eng, rebuiltEngine(t, eng, WithMutations()), []string{"terminal", "hanks"})
}

// TestConcurrentInsertsShareTokenTail: inserts that all carry one token
// append to its posting lists in place, while readers pinned to earlier
// snapshots keep reading those lists. Under -race this checks that the
// appends never touch what a pinned snapshot reads, and a result pinned
// before the inserts still counts the rows it counted then.
func TestConcurrentInsertsShareTokenTail(t *testing.T) {
	eng := mutableEngine(t)
	insert := func(i int) {
		key := fmt.Sprintf("x%d", i)
		if _, err := eng.Apply(bg, []Mutation{{Op: OpInsert, Table: "actor", Values: []string{key, key + " Shared"}}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		insert(i)
	}
	pinned := search(t, eng, "shared", 1)[0]
	before, err := pinned.Count()
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, 8)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := eng.SearchRows(bg, RowsRequest{Query: "shared", K: 3}); err != nil {
					errs <- "rows: " + err.Error()
					return
				}
				if n, err := pinned.Count(); err != nil || n != before {
					errs <- fmt.Sprintf("pinned result counts %d (err %v), counted %d before the inserts", n, err, before)
					return
				}
			}
		}()
	}
	for i := 3; i < 200; i++ {
		insert(i)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	compareEngines(t, eng, rebuiltEngine(t, eng, WithMutations()), []string{"shared", "x150 shared"})
}

// TestApplyCancelledContext: a cancelled context aborts before any work.
func TestApplyCancelledContext(t *testing.T) {
	eng := mutableEngine(t)
	ctx, cancel := context.WithCancel(bg)
	cancel()
	if _, err := eng.Apply(ctx, []Mutation{{Op: OpInsert, Table: "actor", Values: []string{"a9", "X"}}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if eng.Epoch() != 0 {
		t.Fatal("cancelled Apply committed")
	}
}
