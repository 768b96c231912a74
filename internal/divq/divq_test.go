package divq

import (
	"context"
	"math"
	"testing"

	"repro/internal/invindex"
	"repro/internal/metrics"
	"repro/internal/prob"
	"repro/internal/query"
	"repro/internal/relstore"
	"repro/internal/schemagraph"
)

type fixture struct {
	db    *relstore.Database
	ix    *invindex.Index
	cat   *query.Catalog
	model *prob.Model
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
	director := must(&relstore.TableSchema{
		Name:       "director",
		Columns:    []relstore.Column{{Name: "id"}, {Name: "name", Indexed: true}},
		PrimaryKey: "id",
	})
	movie := must(&relstore.TableSchema{
		Name:       "movie",
		Columns:    []relstore.Column{{Name: "id"}, {Name: "title", Indexed: true}, {Name: "plot", Indexed: true}},
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
	directs := must(&relstore.TableSchema{
		Name:    "directs",
		Columns: []relstore.Column{{Name: "director_id"}, {Name: "movie_id"}},
		ForeignKeys: []relstore.ForeignKey{
			{Column: "director_id", RefTable: "director", RefColumn: "id"},
			{Column: "movie_id", RefTable: "movie", RefColumn: "id"},
		},
	})
	ins := func(tb *relstore.Table, vals ...string) {
		t.Helper()
		if _, err := tb.Insert(vals...); err != nil {
			t.Fatal(err)
		}
	}
	// The Table 4.1 scenario: "guest" is a director, an actor, and occurs
	// in a plot; "consideration" is a movie title.
	ins(director, "d1", "Christopher Guest")
	ins(actor, "a1", "Christopher Guest")
	ins(actor, "a2", "Tom Hanks")
	ins(movie, "m1", "Consideration", "a film by christopher guest")
	ins(movie, "m2", "The Terminal", "an airport story")
	ins(acts, "a1", "m1")
	ins(acts, "a2", "m2")
	ins(directs, "d1", "m1")
	ix := invindex.Build(db)
	g := schemagraph.FromDatabase(db)
	cat := query.BuildCatalog(g, schemagraph.EnumerateOptions{MaxNodes: 3})
	model := prob.New(ix, cat, prob.Config{UseCoOccurrence: true})
	return &fixture{db: db, ix: ix, cat: cat, model: model}
}

// rankedAll is the ranked interpretation space of a keyword query,
// empty interpretations included.
func (f *fixture) rankedAll(t *testing.T, keywords ...string) []prob.Scored {
	t.Helper()
	ctx := context.Background()
	c, err := query.GenerateCandidatesContext(ctx, f.ix, keywords, query.GenerateOptionsConfig{})
	if err != nil {
		t.Fatal(err)
	}
	space, err := query.GenerateCompleteContext(ctx, c, f.cat, query.GenerateConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ranked, err := f.model.RankContext(ctx, space)
	if err != nil {
		t.Fatal(err)
	}
	return ranked
}

// filter runs FilterNonEmptyExec on the fixture database, with a
// per-call selection cache as the serving path uses it.
func (f *fixture) filter(t *testing.T, ranked []prob.Scored) []prob.Scored {
	t.Helper()
	exec := &relstore.LocalExecutor{DB: f.db, Cache: relstore.NewSelectionCache()}
	nonEmpty, err := FilterNonEmptyExec(context.Background(), exec, ranked)
	if err != nil {
		t.Fatal(err)
	}
	return nonEmpty
}

// ranked is the non-empty ranked interpretation list of a keyword query.
func (f *fixture) ranked(t *testing.T, keywords ...string) []prob.Scored {
	t.Helper()
	return f.filter(t, f.rankedAll(t, keywords...))
}

func TestSimilarity(t *testing.T) {
	f := newFixture(t)
	ranked := f.ranked(t, "christopher", "guest")
	if len(ranked) < 2 {
		t.Fatalf("need ≥2 interpretations, got %d", len(ranked))
	}
	for _, s := range ranked {
		if got := Similarity(s.Q, s.Q); math.Abs(got-1) > 1e-12 {
			t.Fatalf("self-similarity = %v", got)
		}
	}
	// Symmetric and within [0,1].
	for i := 0; i < len(ranked); i++ {
		for j := 0; j < len(ranked); j++ {
			sij := Similarity(ranked[i].Q, ranked[j].Q)
			sji := Similarity(ranked[j].Q, ranked[i].Q)
			if math.Abs(sij-sji) > 1e-12 {
				t.Fatal("similarity not symmetric")
			}
			if sij < 0 || sij > 1 {
				t.Fatalf("similarity out of range: %v", sij)
			}
		}
	}
}

func TestSimilarityDisjointAndOverlapping(t *testing.T) {
	ki := func(pos int, kw, table, col string) *query.KeywordInterpretation {
		return &query.KeywordInterpretation{Pos: pos, Keyword: kw, Kind: query.KindValue,
			Attr: invindex.AttrRef{Table: table, Column: col}}
	}
	qa := query.NewInterpretation([]string{"a", "b"}, nil, []query.Binding{
		{KI: ki(0, "a", "actor", "name")}, {KI: ki(1, "b", "movie", "title")},
	})
	qb := query.NewInterpretation([]string{"a", "b"}, nil, []query.Binding{
		{KI: ki(0, "a", "actor", "name")}, {KI: ki(1, "b", "movie", "plot")},
	})
	qc := query.NewInterpretation([]string{"a", "b"}, nil, []query.Binding{
		{KI: ki(0, "a", "director", "name")}, {KI: ki(1, "b", "movie", "plot")},
	})
	// qa vs qb share 1 of 3 distinct elements.
	if got := Similarity(qa, qb); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Fatalf("Similarity(qa,qb) = %v, want 1/3", got)
	}
	// qa vs qc share none.
	if got := Similarity(qa, qc); got != 0 {
		t.Fatalf("Similarity(qa,qc) = %v, want 0", got)
	}
}

func TestDiversifyFirstIsMostRelevant(t *testing.T) {
	f := newFixture(t)
	ranked := f.ranked(t, "consideration", "christopher", "guest")
	div := Diversify(ranked, Config{Lambda: 0.1, K: 3})
	if len(div) == 0 {
		t.Fatal("empty diversification")
	}
	if div[0].Q.Key() != ranked[0].Q.Key() {
		t.Fatal("first diversified item must be the most relevant interpretation")
	}
}

func TestDiversifyReducesSimilarity(t *testing.T) {
	f := newFixture(t)
	ranked := f.ranked(t, "christopher", "guest")
	if len(ranked) < 3 {
		t.Skipf("need ≥3 interpretations, got %d", len(ranked))
	}
	k := 3
	div := Diversify(ranked, Config{Lambda: 0.1, K: k})
	avgSim := func(list []prob.Scored) float64 {
		s, n := 0.0, 0
		for i := 0; i < len(list); i++ {
			for j := i + 1; j < len(list); j++ {
				s += Similarity(list[i].Q, list[j].Q)
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return s / float64(n)
	}
	if avgSim(div) > avgSim(ranked[:k])+1e-9 {
		t.Fatalf("diversification did not reduce redundancy: %v vs %v",
			avgSim(div), avgSim(ranked[:k]))
	}
}

func TestDiversifyLambdaOneKeepsRanking(t *testing.T) {
	f := newFixture(t)
	ranked := f.ranked(t, "christopher", "guest")
	div := Diversify(ranked, Config{Lambda: 1, K: len(ranked)})
	if len(div) != len(ranked) {
		t.Fatalf("length changed: %d vs %d", len(div), len(ranked))
	}
	for i := range div {
		if div[i].Q.Key() != ranked[i].Q.Key() {
			t.Fatalf("λ=1 must preserve relevance order at %d", i)
		}
	}
}

func TestDiversifyRelevanceNoveltyTradeoff(t *testing.T) {
	f := newFixture(t)
	ranked := f.ranked(t, "christopher", "guest")
	if len(ranked) < 3 {
		t.Skip("not enough interpretations")
	}
	k := minInt(4, len(ranked))
	rel := func(list []prob.Scored) float64 {
		s := 0.0
		for _, x := range list {
			s += x.Prob
		}
		return s
	}
	hi := Diversify(ranked, Config{Lambda: 1.0, K: k})
	lo := Diversify(ranked, Config{Lambda: 0.0, K: k})
	// Figure 4.4: lowering λ must not increase aggregate relevance.
	if rel(lo) > rel(hi)+1e-9 {
		t.Fatalf("λ=0 relevance %v exceeds λ=1 relevance %v", rel(lo), rel(hi))
	}
}

func TestDiversifyBoundsK(t *testing.T) {
	f := newFixture(t)
	ranked := f.ranked(t, "guest")
	div := Diversify(ranked, Config{Lambda: 0.5, K: 1000})
	if len(div) != len(ranked) {
		t.Fatalf("K beyond list should clamp: %d vs %d", len(div), len(ranked))
	}
	if Diversify(nil, Config{Lambda: 0.5, K: 3}) != nil {
		t.Fatal("empty input should yield nil")
	}
	// No duplicates in the output.
	seen := map[string]bool{}
	for _, s := range div {
		if seen[s.Q.Key()] {
			t.Fatal("duplicate interpretation in diversified list")
		}
		seen[s.Q.Key()] = true
	}
}

func TestResultNuggets(t *testing.T) {
	f := newFixture(t)
	ranked := f.ranked(t, "guest")
	for _, s := range ranked {
		nuggets, err := ResultNuggets(f.db, s.Q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(nuggets) == 0 {
			t.Fatalf("non-empty interpretation returned no nuggets: %v", s.Q)
		}
	}
	// Limit caps the result size.
	n1, err := ResultNuggets(f.db, ranked[0].Q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(n1) > ranked[0].Q.Template.Size() {
		t.Fatalf("limit=1 should produce at most one JTT's nuggets, got %d", len(n1))
	}
}

func TestFilterNonEmpty(t *testing.T) {
	f := newFixture(t)
	ranked := f.rankedAll(t, "christopher", "terminal")
	nonEmpty := f.filter(t, ranked)
	// "christopher terminal" joins are empty (Guest is not in Terminal),
	// so the filter must remove some interpretations.
	if len(nonEmpty) >= len(ranked) {
		t.Fatalf("filter removed nothing: %d vs %d", len(nonEmpty), len(ranked))
	}
	// Uncached Database.Count is the oracle: the filter keeps, in rank
	// order, exactly the interpretations with at least one result, so
	// every survivor counts 1 and every dropped one counts 0.
	kept := 0
	for _, s := range ranked {
		plan, err := s.Q.JoinPlan()
		if err != nil {
			t.Fatal(err)
		}
		n, err := f.db.Count(plan, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		survived := kept < len(nonEmpty) && nonEmpty[kept].Q == s.Q
		if survived {
			kept++
		}
		if survived != (n > 0) {
			t.Fatalf("%v: count %d, kept by the filter: %v", s.Q, n, survived)
		}
	}
	if kept != len(nonEmpty) {
		t.Fatalf("filter output is not an in-order subsequence of its input: matched %d of %d", kept, len(nonEmpty))
	}
}

func TestToItems(t *testing.T) {
	f := newFixture(t)
	ranked := f.ranked(t, "guest")
	items, err := ToItems(f.db, ranked, func(q *query.Interpretation) float64 { return 0.5 }, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != len(ranked) {
		t.Fatalf("items = %d", len(items))
	}
	for _, it := range items {
		if it.Relevance != 0.5 || len(it.Nuggets) == 0 {
			t.Fatalf("bad item: %+v", it)
		}
	}
	// The items feed the adapted metrics.
	ws := metrics.WSRecall(items, items)
	if len(ws) == 0 || ws[len(ws)-1] <= 0 {
		t.Fatal("WS-recall over items degenerate")
	}
}

func TestProbabilityRatio(t *testing.T) {
	f := newFixture(t)
	ranked := f.ranked(t, "christopher", "guest")
	pr := ProbabilityRatio(ranked)
	if len(pr) != len(ranked) {
		t.Fatalf("PR length = %d", len(pr))
	}
	if pr[0] != 1 {
		t.Fatalf("PR[0] = %v", pr[0])
	}
	// Figure 4.1: the ratio decays — later ranks carry a vanishing share.
	for i := 2; i < len(pr); i++ {
		if pr[i] > 1 {
			t.Fatalf("PR[%d] = %v > 1 over a descending ranking", i, pr[i])
		}
	}
}

// TestDiversificationBeatsRankingOnAlphaNDCGW reproduces the headline
// Figure 4.2 effect in miniature: with α close to 1 and redundant top
// interpretations, the diversified order scores at least as high as the
// relevance order on α-nDCG-W.
func TestDiversificationBeatsRankingOnAlphaNDCGW(t *testing.T) {
	f := newFixture(t)
	ranked := f.ranked(t, "christopher", "guest")
	if len(ranked) < 3 {
		t.Skip("not enough interpretations")
	}
	rel := func(q *query.Interpretation) float64 {
		// Simulated assessments: probability as graded relevance.
		for _, s := range ranked {
			if s.Q.Key() == q.Key() {
				return s.Prob
			}
		}
		return 0
	}
	k := minInt(4, len(ranked))
	div := Diversify(ranked, Config{Lambda: 0.1, K: k})
	rankedItems, err := ToItems(f.db, ranked[:k], rel, 0)
	if err != nil {
		t.Fatal(err)
	}
	divItems, err := ToItems(f.db, div, rel, 0)
	if err != nil {
		t.Fatal(err)
	}
	universe, err := ToItems(f.db, ranked, rel, 0)
	if err != nil {
		t.Fatal(err)
	}
	ideal := metrics.IdealOrder(universe)
	aR := metrics.AlphaNDCGW(rankedItems, ideal, 0.99)
	aD := metrics.AlphaNDCGW(divItems, ideal, 0.99)
	// The thesis observes parity when the top interpretations are already
	// distinct (Section 4.6.3, IMDB single-concept), so diversification
	// must preserve the gain within a small tolerance and never collapse.
	if aD[k-1] < aR[k-1]-0.02 {
		t.Fatalf("diversification under-performed at α=0.99: %v vs %v", aD[k-1], aR[k-1])
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Property: Diversify is a permutation of a prefix-selection — its output
// has no duplicates, every element comes from the input, and the output
// is independent of duplicate-free input ordering beyond the probability
// sort contract.
func TestDiversifyIsSelection(t *testing.T) {
	f := newFixture(t)
	ranked := f.ranked(t, "christopher", "guest")
	for _, lambda := range []float64{0, 0.25, 0.5, 0.75, 1} {
		div := Diversify(ranked, Config{Lambda: lambda, K: len(ranked)})
		if len(div) != len(ranked) {
			t.Fatalf("λ=%v: diversification dropped items: %d vs %d",
				lambda, len(div), len(ranked))
		}
		seen := map[string]bool{}
		inInput := map[string]bool{}
		for _, s := range ranked {
			inInput[s.Q.Key()] = true
		}
		for _, s := range div {
			k := s.Q.Key()
			if seen[k] {
				t.Fatalf("λ=%v: duplicate %s", lambda, k)
			}
			seen[k] = true
			if !inInput[k] {
				t.Fatalf("λ=%v: foreign element %s", lambda, k)
			}
		}
	}
}

// Property: early stopping never changes the output (exhaustive over the
// fixture's queries and λ values).
func TestDiversifyEarlyStopEquivalence(t *testing.T) {
	f := newFixture(t)
	for _, kws := range [][]string{{"guest"}, {"christopher", "guest"}, {"consideration", "christopher", "guest"}} {
		ranked := f.ranked(t, kws...)
		for _, lambda := range []float64{0, 0.1, 0.5, 0.9, 1} {
			for k := 1; k <= len(ranked); k++ {
				a := Diversify(ranked, Config{Lambda: lambda, K: k})
				b := Diversify(ranked, Config{Lambda: lambda, K: k, DisableEarlyStop: true})
				if len(a) != len(b) {
					t.Fatalf("k=%d λ=%v: lengths differ", k, lambda)
				}
				for i := range a {
					if a[i].Q.Key() != b[i].Q.Key() {
						t.Fatalf("k=%d λ=%v: early stop changed element %d", k, lambda, i)
					}
				}
			}
		}
	}
}
