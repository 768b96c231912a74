package topk

import (
	"context"
	"testing"

	"repro/internal/invindex"
	"repro/internal/prob"
	"repro/internal/query"
	"repro/internal/relstore"
	"repro/internal/schemagraph"
)

var bg = context.Background()

type fixture struct {
	db     *relstore.Database
	ix     *invindex.Index
	cat    *query.Catalog
	model  *prob.Model
	ranked []prob.Scored
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
		Columns: []relstore.Column{{Name: "actor_id"}, {Name: "movie_id"}, {Name: "role", Indexed: true}},
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
	ins(actor, "a1", "Tom Hanks")
	ins(actor, "a2", "Hanks Hanks") // higher TF for "hanks"
	ins(actor, "a3", "Tom Cruise")
	ins(movie, "m1", "Hanks of the River")
	ins(movie, "m2", "Big")
	ins(acts, "a1", "m2", "Josh")
	ins(acts, "a2", "m1", "Officer Hanks")
	ix := invindex.Build(db)
	g := schemagraph.FromDatabase(db)
	cat := query.BuildCatalog(g, schemagraph.EnumerateOptions{MaxNodes: 3})
	model := prob.New(ix, cat, prob.Config{})
	c, err := query.GenerateCandidatesContext(bg, ix, []string{"hanks"}, query.GenerateOptionsConfig{})
	if err != nil {
		t.Fatal(err)
	}
	space, err := query.GenerateCompleteContext(bg, c, cat, query.GenerateConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ranked, err := model.RankContext(bg, space)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) < 3 {
		t.Fatalf("fixture space too small: %d", len(ranked))
	}
	return &fixture{db: db, ix: ix, cat: cat, model: model, ranked: ranked}
}

// TestTopKMatchesNaive: early-stopping top-k returns the scores of the
// execute-everything baseline.
func TestTopKMatchesNaive(t *testing.T) {
	f := newFixture(t)
	for _, k := range []int{1, 2, 3, 5, 100} {
		for _, scorer := range []Scorer{UnitScorer{}, &TFScorer{IX: f.ix}} {
			want, err := Naive(f.db, f.ranked, scorer, Options{K: k})
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := TopKContext(bg, f.db, f.ranked, scorer, Options{K: k})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("k=%d: TopK %d results, Naive %d", k, len(got), len(want))
			}
			for i := range got {
				// Scores must agree; result identity may permute on ties.
				if got[i].Score != want[i].Score {
					t.Fatalf("k=%d rank %d: score %v vs %v", k, i, got[i].Score, want[i].Score)
				}
			}
		}
	}
}

// countingExecutor counts the plans handed to it.
type countingExecutor struct {
	relstore.LocalExecutor
	plans int
}

func (c *countingExecutor) ExecutePlan(p *relstore.JoinPlan, limit int) ([]relstore.JTT, error) {
	c.plans++
	return c.LocalExecutor.ExecutePlan(p, limit)
}

// TestTopKExecutesNoDiscardedPlan: every plan top-k hands to the
// executor is one whose results it merges, so executor calls equal
// Stats.Executed and executed plus skipped cover the ranked list.
func TestTopKExecutesNoDiscardedPlan(t *testing.T) {
	f := newFixture(t)
	for _, k := range []int{1, 2, 3, 5, 100} {
		exec := &countingExecutor{LocalExecutor: relstore.LocalExecutor{DB: f.db}}
		_, stats, err := TopKContext(bg, f.db, f.ranked, &TFScorer{IX: f.ix}, Options{K: k, Exec: exec})
		if err != nil {
			t.Fatal(err)
		}
		if exec.plans != stats.Executed {
			t.Fatalf("k=%d: executor ran %d plans, top-k merged %d", k, exec.plans, stats.Executed)
		}
		if stats.Executed+stats.Skipped != len(f.ranked) {
			t.Fatalf("k=%d: executed %d + skipped %d != %d ranked", k, stats.Executed, stats.Skipped, len(f.ranked))
		}
	}
}

func TestTopKSortedDescending(t *testing.T) {
	f := newFixture(t)
	got, _, err := TopKContext(bg, f.db, f.ranked, &TFScorer{IX: f.ix}, Options{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no results")
	}
	for i := 1; i < len(got); i++ {
		if got[i].Score > got[i-1].Score {
			t.Fatal("results not sorted")
		}
	}
}

func TestTopKEarlyStops(t *testing.T) {
	f := newFixture(t)
	// With k=1 and a dominant first interpretation, later ones are pruned.
	_, stats, err := TopKContext(bg, f.db, f.ranked, UnitScorer{}, Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Skipped == 0 {
		t.Fatalf("expected pruning, stats=%+v", stats)
	}
	if stats.Executed+stats.Skipped > len(f.ranked) {
		t.Fatalf("bookkeeping wrong: %+v over %d", stats, len(f.ranked))
	}
}

func TestTopKValidation(t *testing.T) {
	f := newFixture(t)
	if _, _, err := TopKContext(bg, f.db, f.ranked, nil, Options{}); err == nil {
		t.Fatal("K=0 accepted")
	}
	if _, err := Naive(f.db, f.ranked, nil, Options{}); err == nil {
		t.Fatal("Naive K=0 accepted")
	}
	// nil scorer defaults to UnitScorer.
	got, _, err := TopKContext(bg, f.db, f.ranked, nil, Options{K: 2})
	if err != nil || len(got) == 0 {
		t.Fatalf("nil scorer: %v", err)
	}
}

func TestTFScorerPrefersDenserMatches(t *testing.T) {
	f := newFixture(t)
	// Among results of the actor.name interpretation, "Hanks Hanks"
	// (TF=1.0) must outscore "Tom Hanks" (TF=0.5).
	var actorQ *prob.Scored
	for i := range f.ranked {
		q := f.ranked[i].Q
		if q.Template.Size() == 1 && q.Bindings[0].KI.Attr.String() == "actor.name" {
			actorQ = &f.ranked[i]
			break
		}
	}
	if actorQ == nil {
		t.Fatal("actor.name interpretation missing")
	}
	res, _, err := TopKContext(bg, f.db, []prob.Scored{*actorQ}, &TFScorer{IX: f.ix}, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("results = %d", len(res))
	}
	name, _ := f.db.Table("actor").Value(res[0].Rows[0], "name")
	if name != "Hanks Hanks" {
		t.Fatalf("top result = %q, want the denser match", name)
	}
	if res[0].Score <= res[1].Score {
		t.Fatal("TF factor did not separate the results")
	}
}

func TestPerInterpretationLimit(t *testing.T) {
	f := newFixture(t)
	_, stats, err := TopKContext(bg, f.db, f.ranked, UnitScorer{}, Options{K: 100, PerInterpretationLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Materialized > stats.Executed {
		t.Fatalf("limit violated: %+v", stats)
	}
}

func TestUnitScorerFactor(t *testing.T) {
	if (UnitScorer{}).Factor(nil, nil, relstore.JTT{}) != 1 {
		t.Fatal("unit factor != 1")
	}
}

func TestTFScorerKeywordFreeNodes(t *testing.T) {
	f := newFixture(t)
	// An interpretation without value predicates gets the neutral factor.
	s := &TFScorer{IX: f.ix}
	plan := &relstore.JoinPlan{Nodes: []relstore.JoinNode{{Table: "actor"}}}
	if got := s.Factor(f.db, plan, relstore.JTT{Rows: []int{0}}); got != 1 {
		t.Fatalf("neutral factor = %v", got)
	}
}

func TestTopKPropagatesPlanErrors(t *testing.T) {
	f := newFixture(t)
	// A template-less interpretation cannot produce a join plan.
	broken := []prob.Scored{{Q: &query.Interpretation{Keywords: []string{"x"}}, Score: 1}}
	if _, _, err := TopKContext(bg, f.db, broken, UnitScorer{}, Options{K: 1}); err == nil {
		t.Fatal("plan error not propagated by TopK")
	}
	if _, err := Naive(f.db, broken, UnitScorer{}, Options{K: 1}); err == nil {
		t.Fatal("plan error not propagated by Naive")
	}
}

func TestTopKEmptyRankedList(t *testing.T) {
	f := newFixture(t)
	res, stats, err := TopKContext(bg, f.db, nil, UnitScorer{}, Options{K: 3})
	if err != nil || len(res) != 0 || stats.Executed != 0 {
		t.Fatalf("empty input: res=%v stats=%+v err=%v", res, stats, err)
	}
}

func TestTFScorerMissingValueColumn(t *testing.T) {
	f := newFixture(t)
	s := &TFScorer{IX: f.ix}
	plan := &relstore.JoinPlan{Nodes: []relstore.JoinNode{{
		Table:      "actor",
		Predicates: []relstore.Predicate{{Column: "ghost", Keywords: []string{"hanks"}}},
	}}}
	// A predicate on an unknown column contributes nothing; with no other
	// matched keyword the factor is neutral.
	if got := s.Factor(f.db, plan, relstore.JTT{Rows: []int{0}}); got != 1 {
		t.Fatalf("factor = %v", got)
	}
}

// TestTFScorerMatchesPerTokenCounts pins Factor to its definition — the
// mean over predicate keywords of count(keyword)/len(tokens) under
// relstore.Tokenize, summed in predicate order, with token-free cells
// skipped — bit for bit, on values with repeated tokens, repeated and
// absent keywords, mixed case, multi-keyword and several predicates, and
// on cells with runes that lower to ASCII (the Kelvin sign, İ), invalid
// UTF-8, digits and no tokens at all.
func TestTFScorerMatchesPerTokenCounts(t *testing.T) {
	f := newFixture(t)
	s := &TFScorer{IX: f.ix}
	odd := relstore.NewDatabase("odd")
	cells, err := odd.CreateTable(&relstore.TableSchema{Name: "cell", Columns: []relstore.Column{{Name: "v", Indexed: true}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"", " -- ", "\u212Aelvin kelvin", "k \u212A K", "İstanbul i İ", "hanks\xffhanks \xc3", "2001 2001a 2001", "Tom HANKS tom"} {
		if _, err := cells.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	bags := [][]string{{"hanks"}, {"hanks", "hanks"}, {"tom", "hanks", "nobody"}, {"Hanks"}, {}, {"k", "kelvin"}, {"i", "istanbul", "2001"}}
	for _, c := range []struct {
		db         *relstore.Database
		table, col string
	}{{f.db, "actor", "name"}, {odd, "cell", "v"}} {
		tb := c.db.Table(c.table)
		for row := 0; row < tb.Len(); row++ {
			val, _ := tb.Value(row, c.col)
			toks := relstore.Tokenize(val)
			counts := make(map[string]int)
			for _, tok := range toks {
				counts[tok]++
			}
			for _, a := range bags {
				for _, b := range bags {
					plan := &relstore.JoinPlan{Nodes: []relstore.JoinNode{{Table: c.table, Predicates: []relstore.Predicate{
						{Column: c.col, Keywords: a}, {Column: c.col, Keywords: b},
					}}}}
					total, n := 0.0, 0
					if len(toks) > 0 {
						for _, kw := range append(append([]string{}, a...), b...) {
							total += float64(counts[kw]) / float64(len(toks))
							n++
						}
					}
					want := 1.0
					if n > 0 {
						want = min(total/float64(n), 1)
					}
					if got := s.Factor(c.db, plan, relstore.JTT{Rows: []int{row}}); got != want {
						t.Fatalf("row %d (%q) bags %q %q: factor %v, want %v", row, val, a, b, got, want)
					}
				}
			}
		}
	}
}
