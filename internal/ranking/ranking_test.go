package ranking

import (
	"context"
	"math"
	"testing"

	"repro/internal/invindex"
	"repro/internal/prob"
	"repro/internal/query"
	"repro/internal/relstore"
	"repro/internal/schemagraph"
)

type fixture struct {
	db  *relstore.Database
	ix  *invindex.Index
	cat *query.Catalog
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	db := relstore.NewDatabase("movies")
	must := func(s *relstore.TableSchema) *relstore.Table {
		tb, err := db.CreateTable(s)
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}
	actor := must(&relstore.TableSchema{
		Name:       "actor",
		Columns:    []relstore.Column{{Name: "id"}, {Name: "name", Indexed: true}},
		PrimaryKey: "id",
	})
	movie := must(&relstore.TableSchema{
		Name:       "movie",
		Columns:    []relstore.Column{{Name: "id"}, {Name: "title", Indexed: true}},
		PrimaryKey: "id",
	})
	acts := must(&relstore.TableSchema{
		Name:    "acts",
		Columns: []relstore.Column{{Name: "actor_id"}, {Name: "movie_id"}},
		ForeignKeys: []relstore.ForeignKey{
			{Column: "actor_id", RefTable: "actor", RefColumn: "id"},
			{Column: "movie_id", RefTable: "movie", RefColumn: "id"},
		},
	})
	ins := func(tb *relstore.Table, vals ...string) {
		t.Helper()
		if _, err := tb.Insert(vals...); err != nil {
			t.Fatal(err)
		}
	}
	// "garcia" is typical in actor names (3 actors) and rare in movie
	// titles (1 movie) — the worked contrast of Section 3.8.3.
	ins(actor, "a1", "Andy Garcia")
	ins(actor, "a2", "Eddie Garcia")
	ins(actor, "a3", "Luis Garcia")
	ins(actor, "a4", "Tom Hanks")
	ins(movie, "m1", "Garcia")
	ins(movie, "m2", "The Terminal")
	ins(movie, "m3", "Big")
	ins(acts, "a1", "m2")
	ins(acts, "a4", "m2")
	ix := invindex.Build(db)
	g := schemagraph.FromDatabase(db)
	cat := query.BuildCatalog(g, schemagraph.EnumerateOptions{MaxNodes: 3})
	return &fixture{db: db, ix: ix, cat: cat}
}

// space materialises the complete interpretation space of a keyword
// query, failing the test on error.
func (f *fixture) space(t *testing.T, keywords ...string) []*query.Interpretation {
	t.Helper()
	c, err := query.GenerateCandidatesContext(context.Background(), f.ix, keywords, query.GenerateOptionsConfig{})
	if err != nil {
		t.Fatal(err)
	}
	space, err := query.GenerateCompleteContext(context.Background(), c, f.cat, query.GenerateConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return space
}

// probRank ranks space with the IQP model, failing the test on error.
func (f *fixture) probRank(t *testing.T, space []*query.Interpretation) []prob.Scored {
	t.Helper()
	ranked, err := prob.New(f.ix, f.cat, prob.Config{}).RankContext(context.Background(), space)
	if err != nil {
		t.Fatal(err)
	}
	return ranked
}

func garciaSpace(t *testing.T, f *fixture) []*query.Interpretation {
	t.Helper()
	space := f.space(t, "garcia")
	if len(space) < 2 {
		t.Fatalf("expected at least 2 garcia interpretations, got %d", len(space))
	}
	return space
}

func attrOf(q *query.Interpretation) string {
	return q.Bindings[0].KI.Attr.String()
}

// TestGarciaContrast reproduces the qualitative contrast of Section 3.8.3:
// ATF (IQP) interprets "garcia" as the typical actor name, while TF-IDF
// (SQAK) prefers the distinctive movie-title match.
func TestGarciaContrast(t *testing.T) {
	f := newFixture(t)
	space := garciaSpace(t, f)

	iqp := f.probRank(t, space)
	if attrOf(iqp[0].Q) != "actor.name" {
		t.Fatalf("IQP top = %s, want actor.name", attrOf(iqp[0].Q))
	}

	sq := NewSQAK(f.ix)
	sqak := sq.Rank(space)
	if attrOf(sqak[0].Q) != "movie.title" {
		t.Fatalf("SQAK top = %s, want movie.title", attrOf(sqak[0].Q))
	}
}

func TestSQAKPrefersShorterJoins(t *testing.T) {
	f := newFixture(t)
	space := f.space(t, "garcia", "terminal")
	sq := NewSQAK(f.ix)
	// Among interpretations with identical bindings, cost must grow with
	// tree size (Steiner-tree preference).
	var small, large *query.Interpretation
	for _, q := range space {
		if q.Template.Size() == 1 && small == nil {
			small = q
		}
		if q.Template.Size() == 3 && large == nil {
			large = q
		}
	}
	if small == nil || large == nil {
		t.Skip("fixture lacks both sizes")
	}
	if sq.Cost(small) >= sq.Cost(large) {
		t.Fatalf("shorter join should cost less: %v vs %v", sq.Cost(small), sq.Cost(large))
	}
}

func TestSQAKCostComponents(t *testing.T) {
	f := newFixture(t)
	sq := NewSQAK(f.ix)
	// A template-less interpretation is unrankable.
	q := &query.Interpretation{Keywords: []string{"x"}}
	if !math.IsInf(sq.Cost(q), 1) {
		t.Fatal("template-less cost should be +Inf")
	}
	// A 3-node tree with one keyword node: cost = 2 edges + 1 free node +
	// keyword node in (0,1].
	space := garciaSpace(t, f)
	for _, q := range space {
		if q.Template.Size() == 3 {
			c := sq.Cost(q)
			if c <= 3 || c > 4 {
				t.Fatalf("3-node cost = %v, want in (3,4]", c)
			}
			return
		}
	}
}

func TestSQAKKeywordAbsentFromAttr(t *testing.T) {
	f := newFixture(t)
	sq := NewSQAK(f.ix)
	// A binding whose keyword does not occur in the bound attribute
	// contributes zero TF-IDF: node cost = 1/(1+0) = 1 (like a free node).
	tpl := query.NewTemplate(0, &schemagraph.JoinTree{Tables: []string{"movie"}})
	q := query.NewInterpretation([]string{"hanks"}, tpl, []query.Binding{{
		KI: &query.KeywordInterpretation{Pos: 0, Keyword: "hanks", Kind: query.KindValue,
			Attr: invindex.AttrRef{Table: "movie", Column: "title"}},
		Occ: 0,
	}})
	if got := sq.Cost(q); got != 1 {
		t.Fatalf("absent keyword node cost = %v, want 1", got)
	}
}

func TestRankOf(t *testing.T) {
	f := newFixture(t)
	space := garciaSpace(t, f)
	sq := NewSQAK(f.ix)
	ranked := sq.Rank(space)
	for i, r := range ranked {
		if got := RankOf(ranked, r.Q.Key()); got != i+1 {
			t.Fatalf("RankOf rank %d = %d", i+1, got)
		}
	}
	if RankOf(ranked, "missing") != 0 {
		t.Fatal("missing key should rank 0")
	}
}

func TestProbRankOf(t *testing.T) {
	f := newFixture(t)
	space := garciaSpace(t, f)
	ranked := f.probRank(t, space)
	for i, r := range ranked {
		if got := ProbRankOf(ranked, r.Q.Key()); got != i+1 {
			t.Fatalf("ProbRankOf rank %d = %d", i+1, got)
		}
	}
	if ProbRankOf(ranked, "missing") != 0 {
		t.Fatal("missing key should rank 0")
	}
}

func TestSQAKRankDeterministic(t *testing.T) {
	f := newFixture(t)
	space := garciaSpace(t, f)
	sq := NewSQAK(f.ix)
	r1 := sq.Rank(space)
	rev := make([]*query.Interpretation, len(space))
	for i, q := range space {
		rev[len(space)-1-i] = q
	}
	r2 := sq.Rank(rev)
	for i := range r1 {
		if r1[i].Q.Key() != r2[i].Q.Key() {
			t.Fatalf("SQAK ranking not deterministic at %d", i)
		}
	}
}
