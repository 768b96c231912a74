package datagraph

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/relstore"
)

// graphTestDB builds the acts-between-actor-and-movie shape whose data
// graph has interesting connectivity, with prepared indexes.
func graphTestDB(t *testing.T) *relstore.Database {
	t.Helper()
	db := relstore.NewDatabase("graph")
	actor, err := db.CreateTable(&relstore.TableSchema{
		Name:       "actor",
		Columns:    []relstore.Column{{Name: "id"}, {Name: "name", Indexed: true}},
		PrimaryKey: "id",
	})
	if err != nil {
		t.Fatal(err)
	}
	movie, err := db.CreateTable(&relstore.TableSchema{
		Name:       "movie",
		Columns:    []relstore.Column{{Name: "id"}, {Name: "title", Indexed: true}},
		PrimaryKey: "id",
	})
	if err != nil {
		t.Fatal(err)
	}
	acts, err := db.CreateTable(&relstore.TableSchema{
		Name:       "acts",
		Columns:    []relstore.Column{{Name: "id"}, {Name: "actor_id"}, {Name: "movie_id"}, {Name: "role", Indexed: true}},
		PrimaryKey: "id",
		ForeignKeys: []relstore.ForeignKey{
			{Column: "actor_id", RefTable: "actor", RefColumn: "id"},
			{Column: "movie_id", RefTable: "movie", RefColumn: "id"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][]string{{"a1", "tom hanks"}, {"a2", "meg ryan"}, {"a3", "tom arnold"}} {
		if _, err := actor.Insert(r...); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range [][]string{{"m1", "the terminal"}, {"m2", "sky mail"}} {
		if _, err := movie.Insert(r...); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range [][]string{
		{"x1", "a1", "m1", "viktor"}, {"x2", "a2", "m2", "kathleen"}, {"x3", "a1", "m2", "joe"},
	} {
		if _, err := acts.Insert(r...); err != nil {
			t.Fatal(err)
		}
	}
	db.Prepare()
	return db
}

// assertGraphsEqual compares adjacency and containment map-for-map.
// Build skips tombstones and keeps canonical list order, so a freshly
// built graph over the mutated database is the exact oracle for the
// incrementally maintained one.
func assertGraphsEqual(t *testing.T, got, want *Graph) {
	t.Helper()
	if !reflect.DeepEqual(got.adj, want.adj) {
		t.Errorf("adjacency diverges:\n got %v\nwant %v", got.adj, want.adj)
	}
	if !reflect.DeepEqual(got.containing, want.containing) {
		t.Errorf("containment diverges:\n got %v\nwant %v", got.containing, want.containing)
	}
}

func TestGraphApplyMatchesBuild(t *testing.T) {
	db := graphTestDB(t)
	g := Build(db)
	db2, changes, err := db.Apply([]relstore.Mutation{
		// New actor with an edge-producing junction row.
		{Op: relstore.OpInsert, Table: "actor", Values: []string{"a4", "rita wilson"}},
		{Op: relstore.OpInsert, Table: "acts", Values: []string{"x4", "a4", "m1", "nun"}},
		// Re-point a junction row to another movie (edge rewiring).
		{Op: relstore.OpUpdate, Table: "acts", Key: "x3", Values: []string{"x3", "a1", "m1", "joe"}},
		// Delete an actor that still has junction rows (dangling FK edges vanish).
		{Op: relstore.OpDelete, Table: "actor", Key: "a2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := g.Apply(db2, changes)
	assertGraphsEqual(t, got, Build(db2))
	// The source graph is untouched.
	assertGraphsEqual(t, g, Build(db))
}

func TestGraphApplyRandomized(t *testing.T) {
	db := graphTestDB(t)
	g := Build(db)
	rng := rand.New(rand.NewSource(23))
	words := []string{"tom", "sky", "mail", "terminal", "viktor", "onyx"}
	actorKeys := []string{"a1", "a2", "a3", "a4", "a5"}
	movieKeys := []string{"m1", "m2", "m3"}
	serial := 0
	for round := 0; round < 40; round++ {
		var muts []relstore.Mutation
		serial++
		switch rng.Intn(5) {
		case 4:
			// Insert an actor whose key dangling junction rows may already
			// reference: the pure incoming-edge discovery path of Apply.
			muts = append(muts, relstore.Mutation{Op: relstore.OpInsert, Table: "actor", Values: []string{
				actorKeys[rng.Intn(len(actorKeys))] + "n",
				words[rng.Intn(len(words))],
			}})
			if rng.Intn(2) == 0 {
				muts[0].Values[0] = actorKeys[rng.Intn(len(actorKeys))] // recycle a real key
			}
		case 0:
			muts = append(muts, relstore.Mutation{Op: relstore.OpInsert, Table: "acts", Values: []string{
				"y" + string(rune('a'+serial%26)) + string(rune('a'+(serial/26)%26)),
				actorKeys[rng.Intn(len(actorKeys))], // may dangle: no matching actor — no edge, like Build
				movieKeys[rng.Intn(len(movieKeys))],
				words[rng.Intn(len(words))],
			}})
		case 1:
			tb := db.Table("acts")
			if id := liveRowOf(rng, tb); id >= 0 {
				row, _ := tb.Row(id)
				vals := append([]string(nil), row.Values...)
				vals[1] = actorKeys[rng.Intn(len(actorKeys))]
				vals[3] = words[rng.Intn(len(words))]
				muts = append(muts, relstore.Mutation{Op: relstore.OpUpdate, Table: "acts", Key: vals[0], Values: vals})
			}
		case 2:
			tb := db.Table("acts")
			if id := liveRowOf(rng, tb); id >= 0 {
				row, _ := tb.Row(id)
				muts = append(muts, relstore.Mutation{Op: relstore.OpDelete, Table: "acts", Key: row.Values[0]})
			}
		default:
			tb := db.Table("actor")
			if id := liveRowOf(rng, tb); id >= 0 {
				row, _ := tb.Row(id)
				vals := append([]string(nil), row.Values...)
				vals[1] = words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))]
				muts = append(muts, relstore.Mutation{Op: relstore.OpUpdate, Table: "actor", Key: vals[0], Values: vals})
			}
		}
		if len(muts) == 0 {
			continue
		}
		db2, changes, err := db.Apply(muts)
		if err != nil {
			continue // duplicate junction key: skip
		}
		g = g.Apply(db2, changes)
		db = db2
		assertGraphsEqual(t, g, Build(db))
		if t.Failed() {
			t.Fatalf("diverged at round %d (muts %+v)", round, muts)
		}
	}
}

// TestGraphApplySelfLoop: a row whose FK references its own key gets two
// entries in its own adjacency list from Build; Apply must reproduce
// that exactly (both endpoints of the edge land in the same list).
func TestGraphApplySelfLoop(t *testing.T) {
	db := relstore.NewDatabase("selfloop")
	emp, err := db.CreateTable(&relstore.TableSchema{
		Name:       "emp",
		Columns:    []relstore.Column{{Name: "id"}, {Name: "boss"}, {Name: "name", Indexed: true}},
		PrimaryKey: "id",
		ForeignKeys: []relstore.ForeignKey{
			{Column: "boss", RefTable: "emp", RefColumn: "id"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][]string{{"e1", "e1", "ada"}, {"e2", "e1", "grace"}} {
		if _, err := emp.Insert(r...); err != nil {
			t.Fatal(err)
		}
	}
	db.Prepare()
	g := Build(db)

	// Touch the self-referencing row (update) and add another self-boss.
	db2, changes, err := db.Apply([]relstore.Mutation{
		{Op: relstore.OpUpdate, Table: "emp", Key: "e1", Values: []string{"e1", "e1", "ada lovelace"}},
		{Op: relstore.OpInsert, Table: "emp", Values: []string{"e3", "e3", "alan"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := g.Apply(db2, changes)
	assertGraphsEqual(t, got, Build(db2))

	// Deleting the self-looped row must clean up both entries.
	db3, changes, err := db2.Apply([]relstore.Mutation{{Op: relstore.OpDelete, Table: "emp", Key: "e3"}})
	if err != nil {
		t.Fatal(err)
	}
	got = got.Apply(db3, changes)
	assertGraphsEqual(t, got, Build(db3))
}

func liveRowOf(rng *rand.Rand, t *relstore.Table) int {
	if t.NumLive() == 0 {
		return -1
	}
	for try := 0; try < 30; try++ {
		id := rng.Intn(t.Len())
		if t.Live(id) {
			return id
		}
	}
	return -1
}
