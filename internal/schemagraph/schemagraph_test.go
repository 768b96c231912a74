package schemagraph

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/relstore"
)

// fig22Graph builds the 9-table schema graph of Figure 2.2: entity tables
// actor, director, film, company, location and relationship tables acts,
// directs, employed_by, situated_in.
func fig22Graph() *Graph {
	tables := []string{
		"actor", "director", "film", "company", "location",
		"acts", "directs", "employed_by", "situated_in",
	}
	edges := []Edge{
		{From: "acts", To: "actor", FromColumn: "actor_id", ToColumn: "id"},
		{From: "acts", To: "film", FromColumn: "film_id", ToColumn: "id"},
		{From: "directs", To: "director", FromColumn: "director_id", ToColumn: "id"},
		{From: "directs", To: "film", FromColumn: "film_id", ToColumn: "id"},
		{From: "employed_by", To: "actor", FromColumn: "actor_id", ToColumn: "id"},
		{From: "employed_by", To: "director", FromColumn: "director_id", ToColumn: "id"},
		{From: "employed_by", To: "company", FromColumn: "company_id", ToColumn: "id"},
		{From: "situated_in", To: "company", FromColumn: "company_id", ToColumn: "id"},
		{From: "situated_in", To: "location", FromColumn: "location_id", ToColumn: "id"},
	}
	return New(tables, edges)
}

func TestFromDatabase(t *testing.T) {
	db := relstore.NewDatabase("d")
	must := func(s *relstore.TableSchema) {
		if _, err := db.CreateTable(s); err != nil {
			t.Fatal(err)
		}
	}
	must(&relstore.TableSchema{Name: "actor", Columns: []relstore.Column{{Name: "id"}}, PrimaryKey: "id"})
	must(&relstore.TableSchema{Name: "movie", Columns: []relstore.Column{{Name: "id"}}, PrimaryKey: "id"})
	must(&relstore.TableSchema{
		Name:    "acts",
		Columns: []relstore.Column{{Name: "actor_id"}, {Name: "movie_id"}},
		ForeignKeys: []relstore.ForeignKey{
			{Column: "actor_id", RefTable: "actor", RefColumn: "id"},
			{Column: "movie_id", RefTable: "movie", RefColumn: "id"},
		},
	})
	g := FromDatabase(db)
	if g.NumTables() != 3 {
		t.Fatalf("NumTables = %d", g.NumTables())
	}
	if len(g.adj["acts"]) != 2 {
		t.Fatalf("degree(acts) = %d", len(g.adj["acts"]))
	}
	// Reversed half-edge exists at actor.
	n := g.adj["actor"]
	if len(n) != 1 || n[0].To != "acts" || n[0].FromColumn != "id" || n[0].ToColumn != "actor_id" {
		t.Fatalf("adj[actor] = %v", n)
	}
	if _, ok := g.index["movie"]; !ok {
		t.Fatal("movie not indexed")
	}
	if _, ok := g.index["ghost"]; ok {
		t.Fatal("ghost indexed")
	}
}

func TestEdgeReverse(t *testing.T) {
	e := Edge{From: "a", To: "b", FromColumn: "x", ToColumn: "y"}
	r := e.Reverse()
	if r.From != "b" || r.To != "a" || r.FromColumn != "y" || r.ToColumn != "x" {
		t.Fatalf("Reverse = %v", r)
	}
	if r.Reverse() != e {
		t.Fatal("double reverse must be identity")
	}
}

func TestEnumerateJoinTreesSizes(t *testing.T) {
	g := fig22Graph()
	trees := g.EnumerateJoinTrees(EnumerateOptions{MaxNodes: 1})
	if len(trees) != 9 {
		t.Fatalf("size-1 trees = %d, want 9", len(trees))
	}
	trees = g.EnumerateJoinTrees(EnumerateOptions{MaxNodes: 2})
	// 9 singles + 9 edges (each FK edge is one 2-node tree).
	if len(trees) != 18 {
		t.Fatalf("size<=2 trees = %d, want 18", len(trees))
	}
	for _, tr := range trees {
		if tr.Size() > 2 {
			t.Fatalf("tree exceeds MaxNodes: %v", tr)
		}
		if len(tr.TreeEdges) != tr.Size()-1 {
			t.Fatalf("tree is not a tree: %v", tr)
		}
	}
}

func TestEnumerateJoinTreesContainsActsPath(t *testing.T) {
	g := fig22Graph()
	trees := g.EnumerateJoinTrees(EnumerateOptions{MaxNodes: 3})
	found := false
	for _, tr := range trees {
		names := append([]string(nil), tr.Tables...)
		sort.Strings(names)
		if strings.Join(names, ",") == "actor,acts,film" {
			found = true
		}
	}
	if !found {
		t.Fatal("actor ⋈ acts ⋈ film path not enumerated")
	}
}

func TestEnumerateJoinTreesDedup(t *testing.T) {
	g := fig22Graph()
	trees := g.EnumerateJoinTrees(EnumerateOptions{MaxNodes: 4})
	seen := map[string]bool{}
	for _, tr := range trees {
		key := tr.Canonical()
		if seen[key] {
			t.Fatalf("duplicate tree: %s", key)
		}
		seen[key] = true
	}
}

func TestEnumerateJoinTreesSelfJoin(t *testing.T) {
	g := fig22Graph()
	trees := g.EnumerateJoinTrees(EnumerateOptions{MaxNodes: 5})
	// The two-actor template: actor ⋈ acts ⋈ film ⋈ acts ⋈ actor.
	found := false
	for _, tr := range trees {
		occ := map[string]int{}
		for _, n := range tr.Tables {
			occ[n]++
		}
		if occ["actor"] == 2 && occ["acts"] == 2 && occ["film"] == 1 && tr.Size() == 5 {
			found = true
		}
	}
	if !found {
		t.Fatal("self-join template actor⋈acts⋈film⋈acts⋈actor not enumerated")
	}
}

func TestEnumerateJoinTreesMaxTrees(t *testing.T) {
	g := fig22Graph()
	trees := g.EnumerateJoinTrees(EnumerateOptions{MaxNodes: 4, MaxTrees: 7})
	if len(trees) != 7 {
		t.Fatalf("MaxTrees cap violated: %d", len(trees))
	}
	// Breadth-first: the first 7 trees must be the smallest ones.
	for _, tr := range trees {
		if tr.Size() > 1 {
			t.Fatalf("cap should keep singletons first, got size %d", tr.Size())
		}
	}
}

func TestCanonicalIsomorphism(t *testing.T) {
	// Same path a-b-c built with different node orders must canonise equal.
	t1 := &JoinTree{
		Tables: []string{"a", "b", "c"},
		TreeEdges: []TreeEdge{
			{From: 0, To: 1, FromColumn: "x", ToColumn: "y"},
			{From: 1, To: 2, FromColumn: "u", ToColumn: "v"},
		},
	}
	t2 := &JoinTree{
		Tables: []string{"c", "b", "a"},
		TreeEdges: []TreeEdge{
			{From: 0, To: 1, FromColumn: "v", ToColumn: "u"},
			{From: 1, To: 2, FromColumn: "y", ToColumn: "x"},
		},
	}
	if t1.Canonical() != t2.Canonical() {
		t.Fatalf("isomorphic trees canonise differently:\n%s\n%s", t1.Canonical(), t2.Canonical())
	}
	// Different edge labels must canonise differently.
	t3 := t1.Clone()
	t3.TreeEdges[0].FromColumn = "other"
	if t1.Canonical() == t3.Canonical() {
		t.Fatal("different edge labels should change canonical form")
	}
}

func TestNewDeduplicatesTables(t *testing.T) {
	g := New([]string{"a", "a", "b"}, nil)
	if g.NumTables() != 2 {
		t.Fatalf("NumTables = %d, want 2", g.NumTables())
	}
}

// Property: the canonical form is invariant under arbitrary relabelling
// of node indices (tree isomorphism).
func TestCanonicalPermutationInvariance(t *testing.T) {
	build := func(seed int64) (*JoinTree, *JoinTree) {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		names := make([]string, n)
		for i := range names {
			names[i] = string(rune('a' + rng.Intn(4)))
		}
		type edge struct{ from, to int }
		var edges []edge
		for i := 1; i < n; i++ {
			edges = append(edges, edge{from: rng.Intn(i), to: i})
		}
		t1 := &JoinTree{Tables: append([]string(nil), names...)}
		for _, e := range edges {
			t1.TreeEdges = append(t1.TreeEdges, TreeEdge{
				From: e.from, To: e.to, FromColumn: "x", ToColumn: "id",
			})
		}
		// Permute node indices.
		perm := rng.Perm(n)
		t2 := &JoinTree{Tables: make([]string, n)}
		for old, new_ := range perm {
			t2.Tables[new_] = names[old]
		}
		for _, e := range edges {
			t2.TreeEdges = append(t2.TreeEdges, TreeEdge{
				From: perm[e.from], To: perm[e.to], FromColumn: "x", ToColumn: "id",
			})
		}
		return t1, t2
	}
	for seed := int64(0); seed < 200; seed++ {
		t1, t2 := build(seed)
		if t1.Canonical() != t2.Canonical() {
			t.Fatalf("seed %d: permuted tree canonises differently:\n%s\n%s",
				seed, t1.Canonical(), t2.Canonical())
		}
	}
}

// Property: every enumerated join tree is a valid tree over existing
// tables and edges of the graph.
func TestEnumerationValidity(t *testing.T) {
	g := fig22Graph()
	for _, tr := range g.EnumerateJoinTrees(EnumerateOptions{MaxNodes: 4}) {
		if len(tr.TreeEdges) != tr.Size()-1 {
			t.Fatalf("not a tree: %v", tr)
		}
		for _, name := range tr.Tables {
			if _, ok := g.index[name]; !ok {
				t.Fatalf("unknown table %s in tree", name)
			}
		}
		for _, e := range tr.TreeEdges {
			// Every tree edge must correspond to a schema edge.
			found := false
			for _, he := range g.adj[tr.Tables[e.From]] {
				if he.To == tr.Tables[e.To] && he.FromColumn == e.FromColumn && he.ToColumn == e.ToColumn {
					found = true
				}
			}
			if !found {
				t.Fatalf("tree edge %v not in schema graph", e)
			}
		}
	}
}
