package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/invindex"
	"repro/internal/prob"
	"repro/internal/query"
	"repro/internal/relstore"
	"repro/internal/schemagraph"
)

var bg = context.Background()

type fixture struct {
	db    *relstore.Database
	ix    *invindex.Index
	cat   *query.Catalog
	model *prob.Model
}

// newFixture builds a movie database with enough ambiguity that keyword
// queries have multi-interpretation spaces.
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
		Columns:    []relstore.Column{{Name: "id"}, {Name: "title", Indexed: true}, {Name: "year", Indexed: true}},
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
	// "london" is ambiguous: an actor, a director, a title word, a year-ish
	// keyword is unambiguous.
	ins(actor, "a1", "Jack London")
	ins(actor, "a2", "Tom Hanks")
	ins(director, "d1", "Laurie London")
	ins(movie, "m1", "London Boulevard", "2010")
	ins(movie, "m2", "The Terminal", "2004")
	ins(acts, "a1", "m1")
	ins(acts, "a2", "m2")
	ins(directs, "d1", "m2")
	ix := invindex.Build(db)
	g := schemagraph.FromDatabase(db)
	cat := query.BuildCatalog(g, schemagraph.EnumerateOptions{MaxNodes: 3})
	model := prob.New(ix, cat, prob.Config{})
	return &fixture{db: db, ix: ix, cat: cat, model: model}
}

func (f *fixture) candidates(t *testing.T, keywords ...string) *query.Candidates {
	t.Helper()
	c, err := query.GenerateCandidatesContext(bg, f.ix, keywords, query.GenerateOptionsConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// space materialises the complete interpretation space of c.
func (f *fixture) space(t *testing.T, c *query.Candidates) []*query.Interpretation {
	t.Helper()
	space, err := query.GenerateCompleteContext(bg, c, f.cat, query.GenerateConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return space
}

// intended finds the complete interpretation that binds each keyword to
// the given attribute names (table.column), smallest template first.
func (f *fixture) intended(t *testing.T, keywords []string, attrs ...string) *query.Interpretation {
	t.Helper()
	c := f.candidates(t, keywords...)
	space := f.space(t, c)
	for _, q := range space {
		if len(q.Bindings) != len(attrs) {
			continue
		}
		ok := true
		for i, b := range q.Bindings {
			if b.KI.Attr.String() != attrs[i] {
				ok = false
				break
			}
		}
		if ok {
			return q
		}
	}
	t.Fatalf("intended interpretation %v not found", attrs)
	return nil
}

func TestSessionRequiresMatches(t *testing.T) {
	f := newFixture(t)
	c := f.candidates(t, "zzzz")
	if _, err := NewSessionContext(bg, f.model, c, SessionConfig{}); err == nil {
		t.Fatal("session over unmatched query should fail")
	}
}

func TestSessionConstructsIntended(t *testing.T) {
	f := newFixture(t)
	keywords := []string{"london", "2010"}
	intended := f.intended(t, keywords, "actor.name", "movie.year")
	c := f.candidates(t, keywords...)
	sess, err := NewSessionContext(bg, f.model, c, SessionConfig{Threshold: 20, StopAtRemaining: 1})
	if err != nil {
		t.Fatal(err)
	}
	user := NewSimulatedUser(intended)
	res, err := RunConstruction(bg, sess, user)
	if err != nil {
		t.Fatal(err)
	}
	if res.RemainingRank == 0 {
		t.Fatal("intended interpretation lost")
	}
	if res.Steps == 0 {
		t.Fatal("ambiguous query should require at least one option")
	}
	if res.Steps > 15 {
		t.Fatalf("interaction cost %d implausibly high for this fixture", res.Steps)
	}
}

func TestSessionEveryIntentReachable(t *testing.T) {
	f := newFixture(t)
	keywords := []string{"london"}
	c := f.candidates(t, keywords...)
	space := f.space(t, c)
	if len(space) < 3 {
		t.Fatalf("fixture should make 'london' ambiguous, got %d interpretations", len(space))
	}
	for _, intended := range space {
		sess, err := NewSessionContext(bg, f.model, c, SessionConfig{StopAtRemaining: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunConstruction(bg, sess, NewSimulatedUser(intended))
		if err != nil {
			t.Fatalf("intent %v unreachable: %v", intended, err)
		}
		if res.RemainingRank != 1 || res.Remaining != 1 {
			t.Fatalf("intent %v not isolated: rank=%d remaining=%d",
				intended, res.RemainingRank, res.Remaining)
		}
	}
}

func TestSessionAcceptNarrowsToAccepted(t *testing.T) {
	f := newFixture(t)
	c := f.candidates(t, "london", "2010")
	sess, err := NewSessionContext(bg, f.model, c, SessionConfig{StopAtRemaining: 1})
	if err != nil {
		t.Fatal(err)
	}
	opt, ok := sess.NextOption()
	if !ok {
		t.Fatal("no option offered")
	}
	if err := sess.AcceptContext(bg, opt); err != nil {
		t.Fatal(err)
	}
	if sess.Steps() != 1 {
		t.Fatalf("Steps = %d", sess.Steps())
	}
	// After full expansion, every remaining interpretation must use the
	// accepted interpretation.
	for !sess.Done() {
		o, ok := sess.NextOption()
		if !ok {
			break
		}
		if err := sess.RejectContext(bg, o); err != nil {
			t.Fatal(err)
		}
	}
	for _, sc := range sess.Remaining() {
		if !opt.Subsumes(sc.Q) {
			t.Fatalf("remaining interpretation %v violates accepted option %v", sc.Q, opt)
		}
	}
}

func TestSessionRejectRemovesOption(t *testing.T) {
	f := newFixture(t)
	c := f.candidates(t, "london")
	sess, err := NewSessionContext(bg, f.model, c, SessionConfig{StopAtRemaining: 1})
	if err != nil {
		t.Fatal(err)
	}
	opt, ok := sess.NextOption()
	if !ok {
		t.Fatal("no option offered")
	}
	if err := sess.RejectContext(bg, opt); err != nil {
		t.Fatal(err)
	}
	for _, sc := range sess.Remaining() {
		if opt.Subsumes(sc.Q) {
			t.Fatalf("rejected option still subsumes remaining %v", sc.Q)
		}
	}
	// The same option must not be offered again.
	for i := 0; i < 10; i++ {
		o, ok := sess.NextOption()
		if !ok {
			break
		}
		if o.Key() == opt.Key() {
			t.Fatal("rejected option offered again")
		}
		if err := sess.RejectContext(bg, o); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSessionStopAtRemaining(t *testing.T) {
	f := newFixture(t)
	c := f.candidates(t, "london")
	sess, err := NewSessionContext(bg, f.model, c, SessionConfig{StopAtRemaining: 3})
	if err != nil {
		t.Fatal(err)
	}
	intended := f.intended(t, []string{"london"}, "actor.name")
	res, err := RunConstruction(bg, sess, NewSimulatedUser(intended))
	if err != nil {
		t.Fatal(err)
	}
	if res.Remaining > 3 {
		t.Fatalf("stopped with %d remaining, wanted ≤3", res.Remaining)
	}
}

// TestProbabilityEstimatesReduceCost reproduces the Figure 3.5 claim in
// miniature: informed (ATF) probability estimates yield average
// interaction cost no worse than the uniform baseline.
func TestProbabilityEstimatesReduceCost(t *testing.T) {
	f := newFixture(t)
	keywords := []string{"london", "2010"}
	c := f.candidates(t, keywords...)
	space := f.space(t, c)
	ranked, err := f.model.RankContext(bg, space)
	if err != nil {
		t.Fatal(err)
	}
	// Intent = the most probable interpretation (the common case): ATF
	// should find it within very few steps.
	intended := ranked[0].Q
	sess, err := NewSessionContext(bg, f.model, c, SessionConfig{StopAtRemaining: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunConstruction(bg, sess, NewSimulatedUser(intended))
	if err != nil {
		t.Fatal(err)
	}
	// Uniform baseline scorer.
	uni := &uniformScorer{cat: f.cat}
	sessU, err := NewSessionContext(bg, uni, c, SessionConfig{StopAtRemaining: 1})
	if err != nil {
		t.Fatal(err)
	}
	resU, err := RunConstruction(bg, sessU, NewSimulatedUser(intended))
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps > resU.Steps {
		t.Fatalf("ATF cost %d worse than uniform %d for the typical intent", res.Steps, resU.Steps)
	}
}

// uniformScorer is the base line of Section 3.8.2: all interpretations and
// options equally likely.
type uniformScorer struct{ cat *query.Catalog }

func (u *uniformScorer) KeywordProb(query.KeywordInterpretation) float64 { return 1 }
func (u *uniformScorer) Catalog() *query.Catalog                         { return u.cat }
func (u *uniformScorer) RankContext(_ context.Context, space []*query.Interpretation) ([]prob.Scored, error) {
	out := make([]prob.Scored, len(space))
	for i, q := range space {
		out[i] = prob.Scored{Q: q, Score: 1, Prob: 1 / float64(len(space))}
	}
	return out, nil
}

func TestOptionPolicyAblation(t *testing.T) {
	f := newFixture(t)
	c := f.candidates(t, "london", "2010")
	intended := f.intended(t, []string{"london", "2010"}, "actor.name", "movie.year")
	for _, policy := range []OptionPolicy{PolicyInformationGain, PolicyProbability} {
		sess, err := NewSessionContext(bg, f.model, c, SessionConfig{StopAtRemaining: 1, OptionPolicy: policy})
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunConstruction(bg, sess, NewSimulatedUser(intended))
		if err != nil {
			t.Fatalf("policy %d: %v", policy, err)
		}
		if res.RemainingRank != 1 {
			t.Fatalf("policy %d failed to isolate intent", policy)
		}
	}
}

func TestSimulatedUserTimeModel(t *testing.T) {
	u := NewSimulatedUser(nil)
	ct := u.ConstructionTime(7, 1)
	// 10 + 7·9 + 1.2 = 74.2 s.
	if got := ct.Seconds(); got < 74 || got > 75 {
		t.Fatalf("ConstructionTime = %v", got)
	}
	rt := u.RankingTime(220)
	// 10 + 220·1.2 = 274 s.
	if got := rt.Seconds(); got < 273 || got > 275 {
		t.Fatalf("RankingTime = %v", got)
	}
	// The Figure 3.7 crossover: high-rank intents cost more via ranking
	// than via construction.
	if u.RankingTime(220) <= u.ConstructionTime(7, 1) {
		t.Fatal("category-11 ranking should be slower than construction")
	}
	// Low-rank intents are faster via ranking.
	if u.RankingTime(2) >= u.ConstructionTime(4, 1) {
		t.Fatal("category-0 ranking should be faster than construction")
	}
}

func TestRunSimulationDeterministic(t *testing.T) {
	cfg := SimConfig{Tables: 10, Keywords: 3, Seed: 11}
	r1, err := RunSimulation(bg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunSimulation(bg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Steps != r2.Steps || r1.Interpretations != r2.Interpretations {
		t.Fatalf("simulation not deterministic: %+v vs %+v", r1, r2)
	}
	if r1.Interpretations <= 0 {
		t.Fatal("no interpretations counted")
	}
}

// TestSimulationGrowth reproduces the qualitative claims of Tables 3.2 and
// 3.3: the interpretation space grows much faster than the interaction
// cost in both the table and the keyword dimension.
func TestSimulationGrowth(t *testing.T) {
	avg := func(tables, keywords int) (interp, steps float64) {
		const reps = 5
		for r := 0; r < reps; r++ {
			res, err := RunSimulation(bg, SimConfig{
				Tables: tables, Keywords: keywords, Seed: int64(100*tables + 10*keywords + r),
			})
			if err != nil {
				t.Fatal(err)
			}
			interp += float64(res.Interpretations)
			steps += float64(res.Steps)
		}
		return interp / reps, steps / reps
	}
	i5, s5 := avg(5, 3)
	i40, s40 := avg(40, 3)
	if i40 <= i5 {
		t.Fatalf("space should grow with tables: %v vs %v", i5, i40)
	}
	if i40/i5 < 4 {
		t.Fatalf("space growth too small: %v → %v", i5, i40)
	}
	// Interaction cost grows far slower than the space.
	if s40/s5 > i40/i5 {
		t.Fatalf("steps grew faster than the space: steps %v→%v, space %v→%v", s5, s40, i5, i40)
	}
	i2, _ := avg(10, 2)
	i6, s6 := avg(10, 6)
	if i6 <= i2 {
		t.Fatalf("space should grow with keywords: %v vs %v", i2, i6)
	}
	if s6 > 80 {
		t.Fatalf("6-keyword interaction cost implausible: %v", s6)
	}
}

func TestCountInterpretationsSaturates(t *testing.T) {
	// Enormous synthetic candidate sets must saturate, not overflow.
	c := &query.Candidates{Keywords: make([]string, 12)}
	c.PerKeyword = make([][]query.KeywordInterpretation, 12)
	for i := range c.Keywords {
		c.Keywords[i] = fmt.Sprintf("kw%d", i)
		for j := 0; j < 50; j++ {
			c.PerKeyword[i] = append(c.PerKeyword[i], query.KeywordInterpretation{
				Pos: i, Keyword: c.Keywords[i], Kind: query.KindValue,
				Attr: invindex.AttrRef{Table: fmt.Sprintf("t%d", j), Column: "val"},
			})
		}
	}
	tree := &schemagraph.JoinTree{Tables: []string{"t0"}}
	for j := 1; j < 50; j++ {
		tree.Tables = append(tree.Tables, fmt.Sprintf("t%d", j))
		tree.TreeEdges = append(tree.TreeEdges, schemagraph.TreeEdge{
			From: j - 1, To: j, FromColumn: "a", ToColumn: "b",
		})
	}
	cat := &query.Catalog{Templates: []*query.Template{query.NewTemplate(0, tree)}}
	got := CountInterpretations(c, cat)
	if got <= 0 {
		t.Fatalf("saturated count must stay positive, got %d", got)
	}
}
