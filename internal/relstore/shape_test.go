package relstore_test

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/query"
	"repro/internal/relstore"
	"repro/internal/schemagraph"
)

// TestShapedCompileMatchesUnshaped compiles one plan per template of the
// movies and music catalogues twice — as made from the template's
// prepared shape (through the skeleton memo) and as a hand-built plan
// with the same nodes and edges (a transient skeleton) — and requires the
// same tables, predicate columns and adjacency pointers, and identical
// Execute and CountRows output. It does so on the built database, again
// from the memo, after rows were inserted in place (which relinks the
// foreign keys they touch, so a memo that ignored the link set would
// hand out stale adjacencies), and on the database an Apply returns.
func TestShapedCompileMatchesUnshaped(t *testing.T) {
	movies, err := datagen.IMDB(datagen.IMDBConfig{Movies: 300, Actors: 220, Directors: 60, Companies: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	music, err := datagen.Lyrics(datagen.LyricsConfig{Artists: 40, AlbumsPerArt: 2, SongsPerAlbum: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		db      *relstore.Database
		maxPath int
	}{{"movies", movies, 4}, {"music", music, 5}} {
		t.Run(c.name, func(t *testing.T) {
			db := c.db
			db.Prepare()
			cat := query.BuildCatalog(schemagraph.FromDatabase(db), schemagraph.EnumerateOptions{MaxNodes: c.maxPath})
			if len(cat.Templates) < 5 {
				t.Fatalf("%d templates", len(cat.Templates))
			}
			plans := templatePlans(t, db, cat)
			checkShapedPlans(t, "built", db, plans)
			checkShapedPlans(t, "memo", db, plans)

			// Rows added in place: every table with a foreign key gains a
			// copy of a live row, so its links no longer cover it.
			var muts []relstore.Mutation
			for _, tb := range db.Tables() {
				if len(tb.Schema.ForeignKeys) == 0 {
					continue
				}
				row, _ := tb.Row(0)
				if _, err := tb.Insert(row.Values...); err != nil {
					t.Fatal(err)
				}
				muts = append(muts, relstore.Mutation{Op: relstore.OpInsert, Table: tb.Schema.Name, Values: row.Values})
			}
			checkShapedPlans(t, "relink", db, plans)

			ndb, _, err := db.Apply(muts)
			if err != nil {
				t.Fatal(err)
			}
			checkShapedPlans(t, "apply", ndb, plans)
		})
	}
}

// TestShapedCompileConcurrent fills one database's skeleton memo from
// several goroutines at once, as concurrent requests on one snapshot
// do, and requires every shaped plan's results to be its hand-built
// twin's.
func TestShapedCompileConcurrent(t *testing.T) {
	db, err := datagen.IMDB(datagen.IMDBConfig{Movies: 200, Actors: 150, Directors: 40, Companies: 20, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	db.Prepare()
	cat := query.BuildCatalog(schemagraph.FromDatabase(db), schemagraph.EnumerateOptions{MaxNodes: 4})
	plans := templatePlans(t, db, cat)
	want := make([][]relstore.JTT, len(plans))
	for k, p := range plans {
		if want[k], err = db.Execute(&relstore.JoinPlan{Nodes: p.Nodes, Edges: p.Edges}, relstore.ExecuteOptions{Limit: 25}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range plans {
				k = (k + g*len(plans)/4) % len(plans)
				got, err := db.Execute(plans[k], relstore.ExecuteOptions{Limit: 25})
				if err != nil || !reflect.DeepEqual(got, want[k]) {
					t.Errorf("goroutine %d plan %d: %v, %v; want %v", g, k, got, err, want[k])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// templatePlans makes one plan per template from its shape, with a
// predicate on the first node (and on the last of a longer one) naming
// a token of one of the table's cells.
func templatePlans(t *testing.T, db *relstore.Database, cat *query.Catalog) []*relstore.JoinPlan {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	var plans []*relstore.JoinPlan
	for _, tpl := range cat.Templates {
		plan, err := query.NewInterpretation(nil, tpl, nil).JoinPlan()
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range []int{0, len(plan.Nodes) - 1} {
			tb := db.Table(plan.Nodes[i].Table)
			cols := tb.Schema.TextColumns()
			if len(cols) == 0 || len(plan.Nodes[i].Predicates) > 0 {
				continue
			}
			col := cols[rng.Intn(len(cols))]
			val, _ := tb.Value(rng.Intn(tb.Len()), col)
			if toks := relstore.Tokenize(val); len(toks) > 0 {
				plan.Nodes[i].Predicates = []relstore.Predicate{{Column: col, Keywords: toks[:1]}}
			}
		}
		plans = append(plans, plan)
	}
	return plans
}

// checkShapedPlans compares each shaped plan's compilation on db with
// its hand-built twin's.
func checkShapedPlans(t *testing.T, stage string, db *relstore.Database, plans []*relstore.JoinPlan) {
	t.Helper()
	nonEmpty := 0
	for k, shaped := range plans {
		twin := &relstore.JoinPlan{Nodes: shaped.Nodes, Edges: shaped.Edges}
		cs, err := db.Compile(shaped)
		if err != nil {
			t.Fatalf("%s: plan %d: %v", stage, k, err)
		}
		cu, err := db.Compile(twin)
		if err != nil {
			t.Fatalf("%s: plan %d unshaped: %v", stage, k, err)
		}
		st, sc, sh := cs.Resolution()
		ut, uc, uh := cu.Resolution()
		for i, tb := range st {
			if tb != ut[i] || tb != db.Table(shaped.Nodes[i].Table) {
				t.Fatalf("%s: plan %d node %d: table %p, unshaped %p, database %p", stage, k, i, tb, ut[i], db.Table(shaped.Nodes[i].Table))
			}
			if len(sh[i]) != len(uh[i]) {
				t.Fatalf("%s: plan %d node %d: %d halves, unshaped %d", stage, k, i, len(sh[i]), len(uh[i]))
			}
			for j := range sh[i] {
				if sh[i][j] != uh[i][j] {
					t.Fatalf("%s: plan %d node %d half %d: %+v, unshaped %+v", stage, k, i, j, sh[i][j], uh[i][j])
				}
			}
		}
		if !reflect.DeepEqual(sc, uc) {
			t.Fatalf("%s: plan %d: predicate columns %v, unshaped %v", stage, k, sc, uc)
		}
		se, _ := cs.Execute(relstore.ExecuteOptions{Limit: 25})
		ue, _ := cu.Execute(relstore.ExecuteOptions{Limit: 25})
		if !reflect.DeepEqual(se, ue) {
			t.Fatalf("%s: plan %d: Execute %v, unshaped %v", stage, k, se, ue)
		}
		if len(se) > 0 {
			nonEmpty++
		}
		sn, _ := cs.CountRows(200, nil)
		un, _ := cu.CountRows(200, nil)
		if sn != un {
			t.Fatalf("%s: plan %d: CountRows %d, unshaped %d", stage, k, sn, un)
		}
	}
	if nonEmpty == 0 {
		t.Fatalf("%s: every plan is empty", stage)
	}
}
